/**
 * @file
 * Sampler unit tests: one-shot path resolution, periodic capture,
 * termination with the event queue, and cross-thread-count sweep
 * determinism of the captured series.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/sampler.hh"
#include "obs/time_series.hh"
#include "sim/event_queue.hh"
#include "sim/sweep.hh"
#include "stats/stats.hh"

using namespace cmpcache;

namespace
{

class SamplerTest : public ::testing::Test
{
  protected:
    SamplerTest()
        : root("sys"),
          count(&root, "count", "event count"),
          child(&root, "l2"),
          depth(&child, "depth", "queue depth",
                [this] { return depthNow; })
    {
    }

    EventQueue eq;
    stats::Group root;
    stats::Scalar count;
    stats::Group child;
    stats::Formula depth;
    double depthNow = 0.0;
};

TEST_F(SamplerTest, WatchResolvesOnceAndRejectsJunk)
{
    Sampler s(eq, root, 10);
    EXPECT_TRUE(s.watch("count"));
    EXPECT_TRUE(s.watch("l2.depth"));
    EXPECT_EQ(s.numChannels(), 2u);

    EXPECT_FALSE(s.watch("count")) << "duplicate watch";
    EXPECT_FALSE(s.watch("no.such.stat"));
    EXPECT_FALSE(s.watch("l2")) << "a group is not a stat";
    EXPECT_EQ(s.numChannels(), 2u);
}

TEST_F(SamplerTest, CapturesEveryIntervalAtInstantaneousValues)
{
    Sampler s(eq, root, 10);
    ASSERT_TRUE(s.watch("count"));
    ASSERT_TRUE(s.watch("l2.depth"));

    // Model activity at ticks 5, 15, 25: the sample at tick 10 must
    // see exactly the tick-5 state, and so on.
    for (Tick t : {Tick(5), Tick(15), Tick(25)})
        eq.at(t, [this] { count += 3; depthNow += 1.0; }, "bump");

    s.start();
    eq.run();

    const SampleSeries &ser = s.series();
    ASSERT_EQ(ser.numChannels(), 2u);
    ASSERT_GE(ser.numSamples(), 2u);
    EXPECT_EQ(ser.ticks[0], 10u);
    EXPECT_EQ(ser.ticks[1], 20u);
    EXPECT_EQ(ser.values[0][0], 3.0);  // count after tick 5
    EXPECT_EQ(ser.values[0][1], 6.0);  // count after tick 15
    EXPECT_EQ(ser.values[1][0], 1.0);  // depth after tick 5
    EXPECT_EQ(ser.values[1][1], 2.0);
}

TEST_F(SamplerTest, DoesNotKeepTheQueueAliveAlone)
{
    Sampler s(eq, root, 10);
    ASSERT_TRUE(s.watch("count"));
    eq.at(35, [this] { count += 1; }, "last");
    s.start();
    const Tick end = eq.run();

    // The queue drains shortly after the last model event instead of
    // sampling forever; the final sample covers tick 35.
    EXPECT_LE(end, 50u);
    ASSERT_FALSE(s.series().empty());
    EXPECT_EQ(s.series().values[0].back(), 1.0);
}

TEST(SampleSeriesJsonTest, WriterEmitsValidDeterministicJson)
{
    SampleSeries s;
    s.interval = 10;
    s.ticks = {10, 20};
    s.names = {"a", "b"};
    s.values = {{1.0, 2.5}, {0.0, 4.0}};

    std::ostringstream os;
    writeSampleSeriesJson(os, s);
    EXPECT_EQ(os.str(), "{\n"
                        "  \"sampleEvery\": 10,\n"
                        "  \"ticks\": [10, 20],\n"
                        "  \"series\": {\n"
                        "    \"a\": [1, 2.5],\n"
                        "    \"b\": [0, 4]\n"
                        "  }\n"
                        "}");

    std::ostringstream again;
    writeSampleSeriesJson(again, s);
    EXPECT_EQ(os.str(), again.str());
}

/** 2x2 sweep: the sampled series must not depend on thread count. */
TEST(SamplerSweepTest, SeriesDeterministicAcrossThreadCounts)
{
    SweepSpec spec;
    spec.workloads = {"thrash", "pingpong"};
    spec.policies = {WbPolicy::Baseline, WbPolicy::Combined};
    spec.outstanding = {4};
    spec.recordsPerThread = 1500;
    spec.base.obs.sampleEvery = 20000;

    const auto one = runSweep(spec, 1);
    const auto two = runSweep(spec, 2);
    ASSERT_EQ(one.size(), 4u);
    ASSERT_EQ(two.size(), 4u);
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_FALSE(one[i].samples.empty()) << "cell " << i;
        EXPECT_EQ(one[i].samples, two[i].samples) << "cell " << i;
    }

    // The whole results file, time series included, is byte-identical.
    std::ostringstream ja, jb;
    writeSweepResultsJson(ja, spec, one);
    writeSweepResultsJson(jb, spec, two);
    EXPECT_EQ(ja.str(), jb.str());
}

} // namespace
