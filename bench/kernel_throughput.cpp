/**
 * @file
 * Event-kernel throughput microbenchmark.
 *
 * Pits the production bucketed-wheel kernel (src/sim/event_queue.hh)
 * against the pre-overhaul heap+hash kernel, preserved verbatim in
 * src/sim/reference_event_queue.hh, across the event mixes that
 * dominate cmpcache runs:
 *
 *   steady-churn     self-rescheduling actors at small random deltas
 *                    (ring drain, CPU attempt, WB drain events)
 *   same-tick-burst  many events at one tick with mixed priorities
 *                    (request + combining + stat events of one cycle)
 *   cancel-heavy     timeout-style schedule-then-deschedule traffic
 *                    (the old kernel pays a hash insert per cancel
 *                    and a hash probe per executed event)
 *   wheel-boundary   deltas straddling the 1024-tick wheel span, so
 *                    events migrate wheel <-> far-heap constantly
 *   pooled-oneshot   fire-and-forget callbacks: EventQueue::at()'s
 *                    free-list pool vs. the new/delete-per-event
 *                    pattern the L2/L3/ring models used to have
 *
 * Usage: kernel_throughput [--ops=N] [--out=FILE]
 *
 * Emits cmpcache-kernel-bench-v1 JSON (to stdout, and to --out when
 * given); `kernel_throughput --out=bench/BENCH_kernel.json` refreshes
 * the committed baseline. Wall-clock numbers are machine-dependent;
 * the per-mode speedup ratios are the part meant for eyeballs.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "sim/event_queue.hh"
#include "sim/reference_event_queue.hh"

namespace cmpcache
{
namespace
{

struct ModeStats
{
    std::string mode;
    std::string kernel;
    std::uint64_t fires = 0;
    std::uint64_t schedules = 0;
    std::uint64_t cancels = 0;
    double wallSeconds = 0.0;

    double
    eventsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(fires) / wallSeconds
                   : 0.0;
    }

    double
    opsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(fires + schedules + cancels)
                         / wallSeconds
                   : 0.0;
    }
};

struct BucketedKernel
{
    using Queue = EventQueue;
    using Wrapper = EventFunctionWrapper;
    static constexpr const char *name = "bucketed";

    static void
    post(Queue &eq, Tick when, std::function<void()> fn)
    {
        eq.at(when, std::move(fn), "bench-oneshot");
    }
};

struct ReferenceKernel
{
    using Queue = ref::RefEventQueue;
    using Wrapper = ref::RefEventFunctionWrapper;
    static constexpr const char *name = "reference-heap";

    /** The old self-deleting per-transaction event pattern. */
    struct SelfDelete : ref::RefEvent
    {
        explicit SelfDelete(std::function<void()> f) : fn(std::move(f))
        {
        }

        void
        process() override
        {
            fn();
            delete this;
        }

        std::function<void()> fn;
    };

    static void
    post(Queue &eq, Tick when, std::function<void()> fn)
    {
        eq.schedule(new SelfDelete(std::move(fn)), when);
    }
};

class Timer
{
  public:
    Timer() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Self-rescheduling actors at small random deltas. */
template <typename K>
ModeStats
runSteadyChurn(std::uint64_t target)
{
    typename K::Queue eq;
    constexpr unsigned NumActors = 64;
    Rng rng(42);
    ModeStats s{"steady-churn", K::name};

    std::vector<std::unique_ptr<typename K::Wrapper>> actors;
    actors.reserve(NumActors);
    const Timer t;
    for (unsigned i = 0; i < NumActors; ++i) {
        actors.push_back(std::make_unique<typename K::Wrapper>(
            [&, i] {
                ++s.fires;
                if (s.fires < target) {
                    ++s.schedules;
                    eq.schedule(actors[i].get(),
                                eq.curTick() + 1 + rng.below(16));
                }
            },
            "actor"));
    }
    for (unsigned i = 0; i < NumActors; ++i) {
        ++s.schedules;
        eq.schedule(actors[i].get(), i % 8);
    }
    eq.run();
    s.wallSeconds = t.seconds();
    return s;
}

/** Bursts of same-tick events with mixed priorities. */
template <typename K>
ModeStats
runSameTickBurst(std::uint64_t target)
{
    typename K::Queue eq;
    constexpr unsigned Burst = 1024;
    ModeStats s{"same-tick-burst", K::name};

    std::vector<std::unique_ptr<typename K::Wrapper>> events;
    events.reserve(Burst);
    for (unsigned i = 0; i < Burst; ++i) {
        const auto prio = i % 4 == 3
                              ? K::Wrapper::StatPri
                              : (i % 4 == 2 ? K::Wrapper::CombinePri
                                            : K::Wrapper::DefaultPri);
        events.push_back(std::make_unique<typename K::Wrapper>(
            [&s] { ++s.fires; }, "burst", prio));
    }

    const Timer t;
    while (s.fires < target) {
        const Tick when = eq.curTick() + 1;
        for (auto &ev : events) {
            ++s.schedules;
            eq.schedule(ev.get(), when);
        }
        eq.run();
    }
    s.wallSeconds = t.seconds();
    return s;
}

/** Timeout traffic: most events are descheduled before firing. */
template <typename K>
ModeStats
runCancelHeavy(std::uint64_t target)
{
    typename K::Queue eq;
    constexpr unsigned Timeouts = 256;
    Rng rng(7);
    ModeStats s{"cancel-heavy", K::name};

    std::vector<std::unique_ptr<typename K::Wrapper>> events;
    events.reserve(Timeouts);
    for (unsigned i = 0; i < Timeouts; ++i) {
        events.push_back(std::make_unique<typename K::Wrapper>(
            [&s] { ++s.fires; }, "timeout"));
    }

    const Timer t;
    std::uint64_t ops = 0;
    while (ops < target) {
        for (auto &ev : events) {
            ++s.schedules;
            eq.schedule(ev.get(), eq.curTick() + 32 + rng.below(32));
        }
        for (auto &ev : events) {
            // 7 of 8 timeouts are serviced in time and cancelled.
            if (rng.below(8) != 0) {
                ++s.cancels;
                eq.deschedule(ev.get());
            }
        }
        eq.run();
        ops += 2 * Timeouts;
    }
    s.wallSeconds = t.seconds();
    return s;
}

/** Deltas straddling the wheel span: wheel <-> far-heap traffic. */
template <typename K>
ModeStats
runWheelBoundary(std::uint64_t target)
{
    typename K::Queue eq;
    constexpr unsigned NumActors = 64;
    Rng rng(1234);
    ModeStats s{"wheel-boundary", K::name};

    std::vector<std::unique_ptr<typename K::Wrapper>> actors;
    actors.reserve(NumActors);
    const Timer t;
    for (unsigned i = 0; i < NumActors; ++i) {
        actors.push_back(std::make_unique<typename K::Wrapper>(
            [&, i] {
                ++s.fires;
                if (s.fires < target) {
                    const Tick delta =
                        rng.below(4) != 0
                            ? 1 + rng.below(64)
                            : EventQueue::WheelSpan + rng.below(8192);
                    ++s.schedules;
                    eq.schedule(actors[i].get(), eq.curTick() + delta);
                }
            },
            "boundary"));
    }
    for (unsigned i = 0; i < NumActors; ++i) {
        ++s.schedules;
        eq.schedule(actors[i].get(), 1 + i);
    }
    eq.run();
    s.wallSeconds = t.seconds();
    return s;
}

/** Fire-and-forget callback chains (the L2/L3/ring pattern). */
template <typename K>
ModeStats
runPooledOneShot(std::uint64_t target)
{
    typename K::Queue eq;
    constexpr unsigned Chains = 32;
    ModeStats s{"pooled-oneshot", K::name};

    std::function<void()> link = [&] {
        ++s.fires;
        if (s.fires < target) {
            ++s.schedules;
            K::post(eq, eq.curTick() + 1 + (s.fires & 7), link);
        }
    };

    const Timer t;
    for (unsigned i = 0; i < Chains; ++i) {
        ++s.schedules;
        K::post(eq, i % 4, link);
    }
    eq.run();
    s.wallSeconds = t.seconds();
    return s;
}

template <typename K>
std::vector<ModeStats>
runKernel(std::uint64_t ops)
{
    return {
        runSteadyChurn<K>(ops),    runSameTickBurst<K>(ops),
        runCancelHeavy<K>(ops),    runWheelBoundary<K>(ops),
        runPooledOneShot<K>(ops),
    };
}

std::string
jsonNum(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

void
writeJson(std::ostream &os, std::uint64_t ops,
          const std::vector<ModeStats> &bucketed,
          const std::vector<ModeStats> &reference)
{
    os << "{\n  \"schema\": \"cmpcache-kernel-bench-v1\",\n"
       << "  \"opsPerMode\": " << ops << ",\n  \"modes\": [\n";
    const auto emit = [&os](const ModeStats &s, bool last) {
        os << "    {\"mode\": \"" << s.mode << "\", \"kernel\": \""
           << s.kernel << "\", \"fires\": " << s.fires
           << ", \"schedules\": " << s.schedules
           << ", \"cancels\": " << s.cancels
           << ", \"wallSeconds\": " << jsonNum(s.wallSeconds)
           << ", \"eventsPerSec\": " << jsonNum(s.eventsPerSec())
           << ", \"opsPerSec\": " << jsonNum(s.opsPerSec()) << "}"
           << (last ? "\n" : ",\n");
    };
    for (std::size_t i = 0; i < bucketed.size(); ++i)
        emit(bucketed[i], false);
    for (std::size_t i = 0; i < reference.size(); ++i)
        emit(reference[i], i + 1 == reference.size());
    os << "  ],\n  \"speedup\": {";
    for (std::size_t i = 0; i < bucketed.size(); ++i) {
        const double ratio =
            reference[i].eventsPerSec() > 0.0
                ? bucketed[i].eventsPerSec()
                      / reference[i].eventsPerSec()
                : 0.0;
        os << (i ? ", " : "") << "\"" << bucketed[i].mode
           << "\": " << jsonNum(ratio);
    }
    os << "}\n}\n";
}

} // namespace
} // namespace cmpcache

int
main(int argc, char **argv)
{
    using namespace cmpcache;

    std::uint64_t ops = 2000000;
    std::string out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--ops=", 0) == 0) {
            ops = std::stoull(arg.substr(6));
        } else if (arg.rfind("--out=", 0) == 0) {
            out = arg.substr(6);
        } else {
            std::cerr << "usage: kernel_throughput [--ops=N]"
                         " [--out=FILE]\n";
            return 2;
        }
    }

    const auto bucketed = runKernel<BucketedKernel>(ops);
    const auto reference = runKernel<ReferenceKernel>(ops);

    writeJson(std::cout, ops, bucketed, reference);
    if (!out.empty()) {
        std::ofstream f(out);
        if (!f) {
            std::cerr << "cannot write " << out << "\n";
            return 1;
        }
        writeJson(f, ops, bucketed, reference);
        std::cerr << "kernel bench written to " << out << "\n";
    }
    return 0;
}
