/**
 * @file
 * Setup shared across sweep cells: each distinct trace is generated
 * once and each warm image built once, and every cell still equals a
 * lone Simulation of its job -- result, stats dump and event count --
 * for every policy, with warmup on and off and with the conformance
 * oracle on, on one worker and on four.
 */

#include <gtest/gtest.h>


#include "sim/result_json.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"

using namespace cmpcache;

namespace
{

/** TP (shared, kernel and stream regions all in play) and thrash on
 * stress-sized caches, across every policy. */
SweepSpec
spec(bool warmup, bool oracle)
{
    SweepSpec s;
    s.workloads = {"TP", "thrash"};
    s.policies = {WbPolicy::Baseline, WbPolicy::Wbht,
                  WbPolicy::WbhtGlobal, WbPolicy::Snarf,
                  WbPolicy::Combined};
    s.outstanding = {4};
    s.recordsPerThread = 600;
    s.seed = 3;
    s.base.l2.sizeBytes = 16 * 1024;
    s.base.l2.assoc = 4;
    s.base.l3.sizeBytes = 128 * 1024;
    s.base.l3.assoc = 8;
    s.base.policy.wbht.entries = 1024;
    s.base.policy.snarf.entries = 1024;
    s.base.policy.retry.windowCycles = 20000;
    s.base.policy.retry.threshold = 5;
    s.base.warmupPass = warmup;
    s.base.check.oracle = oracle;
    s.statsFormat = StatsFormat::Json;
    return s;
}

/** Counts the shared setup a sweep builds. */
struct SetupCounter : SweepObserver
{
    void traceGenerated(const SweepJob &) override { ++traces; }
    void warmImageBuilt(const SweepJob &) override { ++images; }

    unsigned traces = 0;
    unsigned images = 0;
};

struct Case
{
    bool warmup;
    bool oracle;
    unsigned threads;
};

class SweepSharing : public ::testing::TestWithParam<Case>
{
};

} // namespace

TEST_P(SweepSharing, EveryCellEqualsALoneSimulation)
{
    const Case c = GetParam();
    const SweepSpec s = spec(c.warmup, c.oracle);
    const auto jobs = s.expand();
    const auto results = runSweep(s, c.threads);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].label());
        ASSERT_TRUE(results[i].ok) << results[i].error;
        Simulation lone(jobs[i].config, jobs[i].params);
        EXPECT_EQ(resultToJson(results[i].result),
                  resultToJson(lone.run()));
        EXPECT_EQ(results[i].statsDump,
                  dumpStats(lone.system(), StatsFormat::Json));
        EXPECT_EQ(results[i].eventsExecuted,
                  lone.system().totalExecuted());
    }
}

INSTANTIATE_TEST_SUITE_P(
    WarmupOracleWorkers, SweepSharing,
    ::testing::Values(Case{true, false, 1}, Case{true, false, 4},
                      Case{false, false, 4}, Case{true, true, 4}),
    [](const auto &info) {
        return std::string(info.param.warmup ? "warm" : "cold")
               + (info.param.oracle ? "Oracle" : "") + "Workers"
               + std::to_string(info.param.threads);
    });

TEST(SweepSharingCount, OneTraceAndOneImagePerWorkload)
{
    SweepSpec s = spec(true, false);
    s.policies = {WbPolicy::Baseline, WbPolicy::Snarf,
                  WbPolicy::Combined};
    for (const unsigned threads : {1u, 4u}) {
        SetupCounter counter;
        const auto results = runSweep(s, threads, &counter);
        for (const auto &r : results)
            ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(counter.traces, 2u) << threads << " workers";
        EXPECT_EQ(counter.images, 2u) << threads << " workers";
    }

    // Cold cells share the trace and build no image.
    s.base.warmupPass = false;
    SetupCounter cold;
    runSweep(s, 4, &cold);
    EXPECT_EQ(cold.traces, 2u);
    EXPECT_EQ(cold.images, 0u);
}

TEST(SweepSharingCount, AFailedBuildFailsEverySharingCell)
{
    // A trace too long to hold in memory: its generation throws, and
    // every cell that shares it reports that error with its rerun
    // line.
    SweepSpec s = spec(true, false);
    s.policies = {WbPolicy::Baseline, WbPolicy::Combined};
    s.recordsPerThread = std::uint64_t{1} << 62;
    s.workloads = {"thrash"};
    SetupCounter counter;
    const auto results = runSweep(s, 2, &counter);
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.errorKind, "internal");
        EXPECT_EQ(r.error, results[0].error);
        EXPECT_NE(r.rerun.find("--refs=4611686018427387904"),
                  std::string::npos)
            << r.rerun;
    }
    EXPECT_EQ(counter.traces, 0u);
    EXPECT_EQ(counter.images, 0u);
}
