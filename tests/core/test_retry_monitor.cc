/** @file Unit tests for the WBHT retry-rate switch. */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/retry_monitor.hh"

using namespace cmpcache;

namespace
{

RetryMonitor::Params
params(Tick window = 1000, std::uint64_t threshold = 10)
{
    RetryMonitor::Params p;
    p.windowCycles = window;
    p.threshold = threshold;
    return p;
}

} // namespace

TEST(RetryMonitor, InitialStateRespected)
{
    stats::Group root("sys");
    RetryMonitor off(&root, params(1000, 10));
    EXPECT_FALSE(off.active(0));
}

TEST(RetryMonitor, ActivatesWhenThresholdMet)
{
    stats::Group root("sys");
    RetryMonitor m(&root, params(1000, 10));
    for (Tick t = 0; t < 10; ++t)
        m.recordRetry(t);
    // Still inside window 0: not yet re-evaluated.
    EXPECT_FALSE(m.active(999));
    // Window closed with 10 >= 10 retries.
    EXPECT_TRUE(m.active(1000));
}

TEST(RetryMonitor, StaysOffBelowThreshold)
{
    stats::Group root("sys");
    RetryMonitor m(&root, params(1000, 10));
    for (Tick t = 0; t < 9; ++t)
        m.recordRetry(t);
    EXPECT_FALSE(m.active(1000));
}

TEST(RetryMonitor, DeactivatesWhenPressureSubsides)
{
    stats::Group root("sys");
    RetryMonitor m(&root, params(1000, 10));
    for (Tick t = 0; t < 20; ++t)
        m.recordRetry(t);
    EXPECT_TRUE(m.active(1500)); // window 0 was busy
    // Window 1 (1000..2000) is quiet: off again from 2000.
    EXPECT_FALSE(m.active(2000));
}

TEST(RetryMonitor, MultipleEmptyWindowsRollCorrectly)
{
    stats::Group root("sys");
    RetryMonitor m(&root, params(1000, 5));
    for (int i = 0; i < 7; ++i)
        m.recordRetry(100 + i);
    EXPECT_TRUE(m.active(1100));
    // Jump far ahead: all intermediate windows were quiet.
    EXPECT_FALSE(m.active(57000));
}

TEST(RetryMonitor, RetriesLandInCorrectWindow)
{
    stats::Group root("sys");
    RetryMonitor m(&root, params(1000, 5));
    // 3 retries in window 0, 5 in window 1.
    for (int i = 0; i < 3; ++i)
        m.recordRetry(10 + i);
    for (int i = 0; i < 5; ++i)
        m.recordRetry(1010 + i);
    EXPECT_FALSE(m.active(1500)); // window 0: 3 < 5
    EXPECT_TRUE(m.active(2000));  // window 1: 5 >= 5
}

namespace
{

/**
 * Straightforward one-window-at-a-time model of the switch, used to
 * pin down the arithmetic skip-ahead in RetryMonitor::rollWindows.
 */
class LoopModel
{
  public:
    explicit LoopModel(const RetryMonitor::Params &p) : params_(p) {}

    void
    recordRetry(Tick now)
    {
        roll(now);
        ++count_;
    }

    bool
    active(Tick now)
    {
        roll(now);
        return active_;
    }

  private:
    void
    roll(Tick now)
    {
        while (now >= windowStart_ + params_.windowCycles) {
            active_ = count_ >= params_.threshold;
            count_ = 0;
            windowStart_ += params_.windowCycles;
        }
    }

    RetryMonitor::Params params_;
    Tick windowStart_ = 0;
    std::uint64_t count_ = 0;
    bool active_ = false;
};

} // namespace

TEST(RetryMonitor, SkipAheadMatchesLoopModel)
{
    // Random bursts separated by random idle gaps (up to thousands of
    // windows): the skip-ahead arithmetic must agree with the naive
    // window-by-window model at every query point.
    for (const std::uint64_t threshold : {0u, 1u, 5u, 20u}) {
        stats::Group root("sys");
        RetryMonitor m(&root, params(1000, threshold));
        LoopModel ref(params(1000, threshold));
        Rng rng(99 + threshold);
        Tick now = 0;
        for (int step = 0; step < 400; ++step) {
            now += 1 + rng.below(step % 7 == 0 ? 5000000 : 800);
            if (rng.below(3) != 0) {
                m.recordRetry(now);
                ref.recordRetry(now);
            }
            ASSERT_EQ(m.active(now), ref.active(now))
                << "diverged at t=" << now << " threshold="
                << threshold;
        }
    }
}

TEST(RetryMonitor, SkipAheadExactWindowBoundaries)
{
    stats::Group root("sys");
    RetryMonitor m(&root, params(1000, 2));
    m.recordRetry(10);
    m.recordRetry(20);
    // Exactly at the close of window 0: the busy window turns it on.
    EXPECT_TRUE(m.active(1000));
    // Exactly at the close of window 1 (quiet): off again.
    EXPECT_FALSE(m.active(2000));
    // Jump an exact multiple of windows while quiet: still off.
    EXPECT_FALSE(m.active(902000));
}

TEST(RetryMonitor, ZeroThresholdStaysActiveAcrossIdleGaps)
{
    // threshold == 0 means every closed window re-enables the table,
    // including the zero-retry windows in a long idle gap.
    stats::Group root("sys");
    RetryMonitor m(&root, params(1000, 0));
    EXPECT_FALSE(m.active(999)); // initial state until a window closes
    EXPECT_TRUE(m.active(1000));
    EXPECT_TRUE(m.active(500000000));
}

TEST(RetryMonitor, BusyWindowThenHugeGapDeactivates)
{
    stats::Group root("sys");
    RetryMonitor m(&root, params(1000, 3));
    for (int i = 0; i < 4; ++i)
        m.recordRetry(i);
    // The first elapsed window was busy; every window of the gap
    // after it was quiet, so a query far ahead must read off.
    EXPECT_FALSE(m.active(1000u * 1000u * 1000u));
}

TEST(RetryMonitor, PaperDefaults)
{
    stats::Group root("sys");
    RetryMonitor::Params p;
    EXPECT_EQ(p.windowCycles, 1000000u);
    EXPECT_EQ(p.threshold, 2000u);
    RetryMonitor m(&root, p);
    // 2000 retries within the first million cycles flips it on.
    for (int i = 0; i < 2000; ++i)
        m.recordRetry(static_cast<Tick>(i) * 400);
    EXPECT_TRUE(m.active(1000000));
}
