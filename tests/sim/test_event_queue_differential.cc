/**
 * @file
 * Randomized differential tests: the production bucketed kernel
 * against the reference heap kernel in
 * src/sim/reference_event_queue.hh.
 *
 * Both kernels promise the same contract -- events execute in (tick,
 * priority, insertion-sequence) order -- so an identical operation
 * sequence must produce an identical (tick, id) execution log on
 * both. Each run uses its own Rng seeded identically; as long as
 * the kernels agree, the random streams stay in lockstep, and the
 * first divergence shows up as a log mismatch.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/random.hh"
#include "sim/event_queue.hh"
#include "sim/reference_event_queue.hh"

using namespace cmpcache;

namespace
{

struct Scenario
{
    unsigned numIds = 48;
    std::uint64_t ops = 8000;
    Tick maxDelay = 3000;   ///< spans the wheel/heap boundary
    bool mixedPriorities = false;
    bool selfReschedule = false;
};

using Log = std::vector<std::pair<Tick, int>>;

/** One kernel's run of a scenario: posts, bounded runs, a drain. */
template <typename Queue>
class ScenarioRun
{
  public:
    ScenarioRun(const Scenario &sc, std::uint64_t seed)
        : sc_(sc), rng_(seed)
    {
    }

    Log
    drive()
    {
        for (std::uint64_t op = 0; op < sc_.ops; ++op) {
            if (rng_.below(8) < 5) {
                post(static_cast<int>(rng_.below(sc_.numIds)),
                     eq_.curTick() + rng_.below(sc_.maxDelay));
            } else {
                eq_.run(eq_.curTick() + rng_.below(512));
            }
        }
        eq_.run();
        log_.emplace_back(eq_.curTick(), -1); // final time must agree
        return std::move(log_);
    }

  private:
    void
    post(int id, Tick when)
    {
        const auto prio = sc_.mixedPriorities && rng_.below(2) != 0
                              ? Queue::StatPri
                              : Queue::DefaultPri;
        eq_.at(when, [this, id] { fire(id); }, "diff", prio);
    }

    void
    fire(int id)
    {
        log_.emplace_back(eq_.curTick(), id);
        if (sc_.selfReschedule && rng_.below(4) == 0)
            post(id, eq_.curTick() + 1 + rng_.below(sc_.maxDelay));
    }

    const Scenario &sc_;
    Queue eq_;
    Rng rng_;
    Log log_;
};

void
expectKernelsAgree(const Scenario &sc)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const Log bucketed = ScenarioRun<EventQueue>(sc, seed).drive();
        const Log reference =
            ScenarioRun<ref::RefEventQueue>(sc, seed).drive();
        ASSERT_EQ(bucketed.size(), reference.size())
            << "log length diverged for seed " << seed;
        for (std::size_t i = 0; i < bucketed.size(); ++i) {
            ASSERT_EQ(bucketed[i], reference[i])
                << "first divergence at log index " << i
                << " for seed " << seed;
        }
    }
}

} // namespace

TEST(EventQueueDifferential, UniformPriorities)
{
    expectKernelsAgree(Scenario{});
}

TEST(EventQueueDifferential, MixedPriorities)
{
    Scenario sc;
    sc.mixedPriorities = true;
    expectKernelsAgree(sc);
}

TEST(EventQueueDifferential, SameTickBursts)
{
    // Tiny delays pile many mixed-priority events onto each tick,
    // exercising the bucket's lazy re-sort against the heap.
    Scenario sc;
    sc.mixedPriorities = true;
    sc.maxDelay = 4;
    expectKernelsAgree(sc);
}

TEST(EventQueueDifferential, SelfRescheduling)
{
    Scenario sc;
    sc.mixedPriorities = true;
    sc.selfReschedule = true;
    expectKernelsAgree(sc);
}
