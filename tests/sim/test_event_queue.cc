/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"

using namespace cmpcache;

namespace
{

/** Post a callback that logs @p id when it runs. */
void
post(EventQueue &eq, std::vector<int> &log, Tick when, int id,
     EventQueue::Priority prio = EventQueue::DefaultPri)
{
    eq.at(when, [&log, id] { log.push_back(id); }, "log", prio);
}

} // namespace

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    post(eq, log, 20, 2);
    post(eq, log, 10, 1);
    post(eq, log, 30, 3);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickFifoBySequence)
{
    EventQueue eq;
    std::vector<int> log;
    post(eq, log, 5, 1);
    post(eq, log, 5, 2);
    post(eq, log, 5, 3);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue eq;
    std::vector<int> log;
    post(eq, log, 5, 1, EventQueue::StatPri);
    post(eq, log, 5, 2, EventQueue::DefaultPri);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RunStopsAtMaxTick)
{
    EventQueue eq;
    std::vector<int> log;
    post(eq, log, 10, 1);
    post(eq, log, 100, 2);
    eq.run(50);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(eq.curTick(), 50u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    eq.at(3, [&] {
        ticks.push_back(eq.curTick());
        eq.at(eq.curTick() + 7, [&] { ticks.push_back(eq.curTick()); });
    });
    eq.run();
    EXPECT_EQ(ticks, (std::vector<Tick>{3, 10}));
}

TEST(EventQueue, SameTickSelfSchedulingProgresses)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> self = [&] {
        if (++count < 5)
            eq.at(eq.curTick(), self); // zero-delay repost
    };
    eq.at(0, self);
    eq.run();
    EXPECT_EQ(count, 5);
}

TEST(EventQueue, CountsExecutedAndPending)
{
    EventQueue eq;
    std::vector<int> log;
    post(eq, log, 1, 1);
    post(eq, log, 2, 2);
    EXPECT_EQ(eq.numPending(), 2u);
    eq.run();
    EXPECT_EQ(eq.numPending(), 0u);
    EXPECT_EQ(eq.numExecuted(), 2u);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    std::vector<int> log;
    post(eq, log, 10, 1);
    eq.run();
    EXPECT_DEATH(post(eq, log, 5, 2), "in the past");
}

TEST(EventQueue, DeterministicInterleaving)
{
    // Two identical runs must produce identical logs.
    auto run = [] {
        EventQueue eq;
        std::vector<int> log;
        for (int i = 0; i < 50; ++i)
            post(eq, log, static_cast<Tick>((i * 7) % 13), i);
        eq.run();
        return log;
    };
    EXPECT_EQ(run(), run());
}

TEST(EventQueue, RescheduleFromWithinProcess)
{
    // A periodic actor posts its next run from the current one.
    EventQueue eq;
    std::vector<Tick> ticks;
    std::function<void()> tick = [&] {
        ticks.push_back(eq.curTick());
        if (ticks.size() < 4)
            eq.at(eq.curTick() + 100, tick);
    };
    eq.at(1, tick);
    eq.run();
    EXPECT_EQ(ticks, (std::vector<Tick>{1, 101, 201, 301}));
}

TEST(EventQueue, UrgentSameTickLatecomerRunsBeforePending)
{
    // From within a tick, posting a more urgent event at that same
    // tick must still order it before the already-pending lower
    // priority events (exercises the dirty-bucket re-sort).
    EventQueue eq;
    std::vector<int> log;
    post(eq, log, 7, 1, EventQueue::StatPri);
    post(eq, log, 7, 2, EventQueue::StatPri);
    eq.at(7, [&] { post(eq, log, eq.curTick(), 3); });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{3, 1, 2}));
}

TEST(EventQueue, SameTickDefaultPostedBehindStatRunsFirst)
{
    // Model callbacks keep posting DefaultPri and StatPri work at the
    // current tick while a StatPri event is pending there: every
    // DefaultPri event runs first, each class in posting order, and
    // the bucket is re-sorted as often as it falls out of order.
    EventQueue eq;
    std::vector<int> log;
    post(eq, log, 9, 1, EventQueue::StatPri);
    eq.at(9, [&] {
        log.push_back(2);
        eq.at(eq.curTick(), [&] {
            log.push_back(3);
            post(eq, log, eq.curTick(), 5);
        });
        post(eq, log, eq.curTick(), 4, EventQueue::StatPri);
    });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 3, 5, 1, 4}));
    EXPECT_EQ(eq.curTick(), 9u);
}

TEST(EventQueue, MixedPrioritySameTickFullOrder)
{
    // Many events at one tick across both priority classes: priority
    // ranks first, insertion order breaks ties within a class.
    EventQueue eq;
    std::vector<int> log;
    for (int i = 0; i < 30; ++i)
        post(eq, log, 42, i,
             i % 3 == 0 ? EventQueue::StatPri : EventQueue::DefaultPri);
    eq.run();
    std::vector<int> expect;
    for (int i = 0; i < 30; ++i) // DefaultPri first
        if (i % 3 != 0)
            expect.push_back(i);
    for (int i = 0; i < 30; i += 3) // then StatPri
        expect.push_back(i);
    EXPECT_EQ(log, expect);
}

TEST(EventQueue, WheelHeapBoundaryOrdering)
{
    // Delays straddling the wheel span must still fire in tick order,
    // including the exact WheelSpan-1 / WheelSpan / WheelSpan+1 edge.
    EventQueue eq;
    std::vector<int> log;
    post(eq, log, 5 * EventQueue::WheelSpan, 4);
    post(eq, log, EventQueue::WheelSpan + 1, 3);
    post(eq, log, EventQueue::WheelSpan, 2);
    post(eq, log, EventQueue::WheelSpan - 1, 1);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.curTick(), 5 * EventQueue::WheelSpan);
}

TEST(EventQueue, SelfRescheduleAcrossWheelBoundary)
{
    // A callback hopping by exactly WheelSpan keeps crossing from the
    // far heap into the wheel as time advances.
    EventQueue eq;
    std::vector<Tick> ticks;
    std::function<void()> hopper = [&] {
        ticks.push_back(eq.curTick());
        if (ticks.size() < 5)
            eq.at(eq.curTick() + EventQueue::WheelSpan, hopper);
    };
    eq.at(0, hopper);
    eq.run();
    ASSERT_EQ(ticks.size(), 5u);
    for (std::size_t i = 0; i < ticks.size(); ++i)
        EXPECT_EQ(ticks[i], i * EventQueue::WheelSpan);
}

TEST(EventQueue, SameTickPrioritySequenceAgreeAcrossBoundary)
{
    // Far-heap events migrated into the wheel must interleave with
    // directly posted same-tick events per (priority, sequence).
    EventQueue eq;
    std::vector<int> log;
    const Tick target = EventQueue::WheelSpan + 500;
    post(eq, log, target, 1, EventQueue::StatPri); // lower sequence
    post(eq, log, target, 2);
    eq.at(600, [&] { // pulls time forward past migration
        // target now lies inside the wheel window: this post appends
        // directly to a bucket already holding migrants.
        log.push_back(0);
        post(eq, log, target, 3);
    });
    eq.run();
    // DefaultPri in sequence order (2 before 3), StatPri last.
    EXPECT_EQ(log, (std::vector<int>{0, 2, 3, 1}));
}

TEST(EventQueue, RunBoundedOnEmptyQueueKeepsTime)
{
    EventQueue eq;
    std::vector<int> log;
    post(eq, log, 10, 1);
    eq.run();
    EXPECT_EQ(eq.curTick(), 10u);
    eq.run(500); // empty queue: time must not jump to the bound
    EXPECT_EQ(eq.curTick(), 10u);
}

TEST(EventQueue, DestroyedQueueRunsNoPendingCallback)
{
    // Callbacks still pending when their queue dies -- in the wheel
    // and in the far heap -- never run, and their captures are
    // destroyed with the queue.
    auto token = std::make_shared<int>(0);
    std::vector<int> log;
    {
        EventQueue eq;
        post(eq, log, 5, 1);
        eq.at(10, [token, &log] { log.push_back(2); });
        eq.at(3 * EventQueue::WheelSpan,
              [token, &log] { log.push_back(3); });
        eq.run(7);
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, PooledAtRunsInOrder)
{
    EventQueue eq;
    std::vector<int> log;
    eq.at(20, [&] { log.push_back(2); });
    eq.at(10, [&] { log.push_back(1); });
    eq.at(20, [&] { log.push_back(3); }); // same tick: FIFO
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.numExecuted(), 3u);
}

TEST(EventQueue, PooledAtRecyclesObjects)
{
    // A long chain of sequential one-shots must reuse pool objects
    // instead of growing the pool per event.
    EventQueue eq;
    int fires = 0;
    std::function<void()> chain = [&] {
        if (++fires < 1000)
            eq.at(eq.curTick() + 1, chain);
    };
    eq.at(0, chain);
    eq.run();
    EXPECT_EQ(fires, 1000);
    EXPECT_LE(eq.poolSize(), 64u); // one chunk is plenty
}

TEST(EventQueue, PooledAtChainsAcrossWheelBoundary)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    std::function<void()> chain = [&] {
        ticks.push_back(eq.curTick());
        if (ticks.size() < 4)
            eq.at(eq.curTick() + 2 * EventQueue::WheelSpan, chain);
    };
    eq.at(1, chain);
    eq.run();
    ASSERT_EQ(ticks.size(), 4u);
    EXPECT_EQ(ticks[3], 1 + 6 * EventQueue::WheelSpan);
}
