/**
 * @file
 * Event-kernel throughput microbenchmark.
 *
 * Pits the production bucketed-wheel kernel (src/sim/event_queue.hh)
 * against the reference heap kernel in
 * src/sim/reference_event_queue.hh, which allocates every posted
 * event, across the event mixes that dominate cmpcache runs. Both
 * sides post one-shot callbacks through at():
 *
 *   steady-churn     periodic actors reposting at small random deltas
 *                    (ring drain, CPU attempt, WB drain events)
 *   same-tick-burst  many events at one tick with mixed priorities
 *                    (model and stat events of one cycle)
 *   wheel-boundary   deltas straddling the 1024-tick wheel span, so
 *                    events migrate wheel <-> far-heap constantly
 *   pooled-oneshot   fire-and-forget callback chains (the L2/L3/ring
 *                    transaction pipelines)
 *
 * Usage: kernel_throughput [--ops=N] [--out=FILE]
 *
 * Emits cmpcache-kernel-bench-v2 JSON (to stdout, and to --out when
 * given); `kernel_throughput --out=bench/BENCH_kernel.json` refreshes
 * the committed baseline. Wall-clock numbers are machine-dependent;
 * the per-mode speedup ratios are the part meant for eyeballs.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
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
                   ? static_cast<double>(fires + schedules)
                         / wallSeconds
                   : 0.0;
    }
};

struct BucketedKernel
{
    using Queue = EventQueue;
    static constexpr const char *name = "bucketed";
};

struct ReferenceKernel
{
    using Queue = ref::RefEventQueue;
    static constexpr const char *name = "reference-heap";
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

/** Periodic actors reposting at small random deltas. */
template <typename K>
ModeStats
runSteadyChurn(std::uint64_t target)
{
    typename K::Queue eq;
    constexpr unsigned NumActors = 64;
    Rng rng(42);
    ModeStats s{"steady-churn", K::name};

    std::function<void()> actor = [&] {
        ++s.fires;
        if (s.fires < target) {
            ++s.schedules;
            eq.at(eq.curTick() + 1 + rng.below(16), [&] { actor(); },
                  "actor");
        }
    };
    const Timer t;
    for (unsigned i = 0; i < NumActors; ++i) {
        ++s.schedules;
        eq.at(i % 8, [&] { actor(); }, "actor");
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
    using Queue = typename K::Queue;
    Queue eq;
    constexpr unsigned Burst = 1024;
    ModeStats s{"same-tick-burst", K::name};

    const Timer t;
    while (s.fires < target) {
        const Tick when = eq.curTick() + 1;
        for (unsigned i = 0; i < Burst; ++i) {
            ++s.schedules;
            eq.at(when, [&s] { ++s.fires; }, "burst",
                  i % 4 == 3 ? Queue::StatPri : Queue::DefaultPri);
        }
        eq.run();
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

    std::function<void()> actor = [&] {
        ++s.fires;
        if (s.fires < target) {
            const Tick delta = rng.below(4) != 0
                                   ? 1 + rng.below(64)
                                   : EventQueue::WheelSpan
                                         + rng.below(8192);
            ++s.schedules;
            eq.at(eq.curTick() + delta, [&] { actor(); }, "boundary");
        }
    };
    const Timer t;
    for (unsigned i = 0; i < NumActors; ++i) {
        ++s.schedules;
        eq.at(1 + i, [&] { actor(); }, "boundary");
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
            eq.at(eq.curTick() + 1 + (s.fires & 7), link,
                  "bench-oneshot");
        }
    };

    const Timer t;
    for (unsigned i = 0; i < Chains; ++i) {
        ++s.schedules;
        eq.at(i % 4, link, "bench-oneshot");
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
        runSteadyChurn<K>(ops),
        runSameTickBurst<K>(ops),
        runWheelBoundary<K>(ops),
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
    os << "{\n  \"schema\": \"cmpcache-kernel-bench-v2\",\n"
       << "  \"opsPerMode\": " << ops << ",\n  \"modes\": [\n";
    const auto emit = [&os](const ModeStats &s, bool last) {
        os << "    {\"mode\": \"" << s.mode << "\", \"kernel\": \""
           << s.kernel << "\", \"fires\": " << s.fires
           << ", \"schedules\": " << s.schedules
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
