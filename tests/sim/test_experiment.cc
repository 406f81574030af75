/** @file Tests for the experiment metrics on small synthetic runs. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/simulation.hh"
#include "stats/sink.hh"
#include "trace/workloads_commercial.hh"

using namespace cmpcache;

namespace
{

WorkloadParams
smallWorkload(const char *which = "Trade2")
{
    auto p = workloads::byName(which, 1500, 7);
    return p;
}

} // namespace

TEST(Experiment, BaselineRunProducesSaneMetrics)
{
    SystemConfig cfg;
    cfg.cpu.maxOutstanding = 4;
    const auto r = Simulation(cfg, smallWorkload()).run();
    EXPECT_GT(r.execTime, 0u);
    EXPECT_EQ(r.policy, "baseline");
    EXPECT_EQ(r.workload, "Trade2");
    EXPECT_EQ(r.maxOutstanding, 4u);
    EXPECT_GT(r.l2WbRequests, 0u);
    EXPECT_GE(r.l3LoadHitRatePct, 0.0);
    EXPECT_LE(r.l3LoadHitRatePct, 100.0);
    EXPECT_GT(r.offChipAccesses, 0u);
}

TEST(Experiment, DeterministicResults)
{
    SystemConfig cfg;
    const auto a = Simulation(cfg, smallWorkload()).run();
    const auto b = Simulation(cfg, smallWorkload()).run();
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.l2WbRequests, b.l2WbRequests);
    EXPECT_EQ(a.l3Retries, b.l3Retries);
}

TEST(Experiment, InterventionsReportTheCollectorCount)
{
    // NotesBench shares heavily, so peer L2s serve many of its reads.
    SystemConfig cfg;
    Simulation sim(cfg, smallWorkload("NotesBench"));
    const auto r = sim.run();
    const auto *stat = dynamic_cast<const stats::Scalar *>(
        sim.system().ring().collector().find("interventions"));
    ASSERT_NE(stat, nullptr);
    EXPECT_GT(r.interventions, 0u);
    EXPECT_EQ(r.interventions, stat->value());
}

TEST(Experiment, ImprovementPctSigns)
{
    ExperimentResult base;
    base.execTime = 1000;
    ExperimentResult faster;
    faster.execTime = 900;
    ExperimentResult slower;
    slower.execTime = 1100;
    EXPECT_DOUBLE_EQ(improvementPct(base, faster), 10.0);
    EXPECT_DOUBLE_EQ(improvementPct(base, slower), -10.0);
    EXPECT_DOUBLE_EQ(improvementPct(base, base), 0.0);
}

TEST(Experiment, PolicyIsReflectedInResult)
{
    SystemConfig cfg;
    cfg.policy = PolicyConfig::make(WbPolicy::Snarf);
    const auto r = Simulation(cfg, smallWorkload()).run();
    EXPECT_EQ(r.policy, "snarf");
}

TEST(Experiment, WbhtStatsOnlyWithWbhtPolicy)
{
    SystemConfig cfg;
    const auto base = Simulation(cfg, smallWorkload()).run();
    EXPECT_DOUBLE_EQ(base.wbhtCorrectPct, 0.0);

    cfg.policy = PolicyConfig::make(WbPolicy::Wbht);
    cfg.policy.useRetrySwitch = false;
    const auto wbht = Simulation(cfg, smallWorkload()).run();
    EXPECT_GT(wbht.wbhtCorrectPct, 0.0);
}

TEST(Experiment, ReuseTrackerFieldsPopulated)
{
    SystemConfig cfg;
    cfg.enableWbReuseTracker = true;
    const auto r = Simulation(cfg, smallWorkload()).run();
    EXPECT_GT(r.wbReusedTotalPct, 0.0);
    EXPECT_LE(r.wbReusedTotalPct, 100.0);
}

TEST(Experiment, StatsDumpRequested)
{
    SystemConfig cfg;
    Simulation sim(cfg, smallWorkload());
    sim.run();
    std::ostringstream os;
    stats::writeText(sim.system(), os);
    EXPECT_NE(os.str().find("system.l3.load_lookups"),
              std::string::npos);
}

TEST(Experiment, HigherPressureRaisesWbVolumeOrRetries)
{
    SystemConfig lo;
    lo.cpu.maxOutstanding = 1;
    SystemConfig hi;
    hi.cpu.maxOutstanding = 6;
    const auto a = Simulation(lo, smallWorkload()).run();
    const auto b = Simulation(hi, smallWorkload()).run();
    // More overlap -> more concurrent misses -> runtime shrinks.
    EXPECT_LT(b.execTime, a.execTime);
}

TEST(Experiment, ThreadMismatchThrowsConfigError)
{
    SystemConfig cfg;
    auto wl = smallWorkload();
    wl.numThreads = 3;
    try {
        Simulation(cfg, wl).run();
        FAIL() << "expected SimException";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().kind, SimErrorKind::Config);
        EXPECT_NE(e.error().message.find("threads"), std::string::npos)
            << e.error().message;
    }
}
