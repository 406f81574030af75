/**
 * @file
 * End-to-end fault-injection tests: seeded plans drive the machine
 * through the Simulation facade and the effects show up in the
 * fault.* stats, the retry-switch gate, and the sampled time series --
 * deterministically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "stats/sink.hh"
#include "trace/workloads_stress.hh"

using namespace cmpcache;

namespace
{

/** Small but write-back-heavy run on the paper machine. */
WorkloadParams
thrashWorkload()
{
    return workloads::thrashStress(1500, 7);
}

/** A longer storm for the retry-gate tests: enough write backs that
 * forced retries cross several retry-switch window boundaries. */
WorkloadParams
longThrashWorkload()
{
    return workloads::thrashStress(6000, 7);
}

/**
 * The sweep-grid machine: L2 shrunk so a 160-line private thrash
 * footprint sits just above each thread's share (clean re-references
 * miss the L2 but hit the L3, so the WBHT can learn redundancy), and
 * pingpong victims are in immediate peer demand (so snarfing wins).
 */
SystemConfig
tunedConfig(WbPolicy p)
{
    SystemConfig cfg;
    cfg.policy = PolicyConfig::make(p);
    cfg.l2.sizeBytes = 16 * 1024;
    cfg.l2.assoc = 4;
    cfg.l3.sizeBytes = 512 * 1024;
    cfg.l3.assoc = 8;
    cfg.policy.wbht.entries = 4096;
    cfg.policy.snarf.entries = 4096;
    cfg.policy.useRetrySwitch = false;
    cfg.warmupPass = false;
    return cfg;
}

WorkloadParams
tunedThrashWorkload()
{
    return workloads::thrashStress(3000, 7, 160);
}

WorkloadParams
pingpongWorkload()
{
    return workloads::pingpongStress(3000, 7);
}

std::uint64_t
scalarValue(const stats::Group &g, const std::string &name)
{
    const auto *info = g.find(name);
    const auto *s = dynamic_cast<const stats::Scalar *>(info);
    EXPECT_NE(s, nullptr) << "no scalar stat '" << name << "'";
    return s ? s->value() : 0;
}

} // namespace

TEST(FaultInjection, DisabledPlanLeavesNoTrace)
{
    SystemConfig cfg;
    Simulation sim(cfg, thrashWorkload());
    sim.run();
    EXPECT_EQ(sim.system().faultInjector(), nullptr);
    std::ostringstream os;
    stats::writeText(sim.system(), os);
    EXPECT_EQ(os.str().find("fault."), std::string::npos);
}

TEST(FaultInjection, ForcedL3RetriesAreCountedAndDeterministic)
{
    // Half-strength so each write back eventually wins its draw and
    // the run drains: a 1000-permille open-ended plan is a genuine
    // livelock (that is the watchdog tests' job).
    SystemConfig cfg;
    cfg.fault.plan = "l3_retry:0:end:500";
    cfg.fault.seed = 3;

    std::uint64_t forced[2];
    Tick exec[2];
    for (int i = 0; i < 2; ++i) {
        Simulation sim(cfg, thrashWorkload());
        exec[i] = sim.run().execTime;
        ASSERT_NE(sim.system().faultInjector(), nullptr);
        forced[i] = scalarValue(*sim.system().faultInjector(),
                                "forced_l3_retries");
    }
    EXPECT_GT(forced[0], 0u);
    EXPECT_EQ(forced[0], forced[1]);
    EXPECT_EQ(exec[0], exec[1]);
}

TEST(FaultInjection, ForcedRetryStormTogglesWbhtGate)
{
    // The retry switch starts off; a forced-retry storm must push
    // window retry counts over the threshold and flip it on -- the
    // deterministic livelock driver for the WBHT gate. The window has
    // to be much shorter than the run so several boundaries elapse.
    SystemConfig cfg;
    cfg.policy = PolicyConfig::make(WbPolicy::Wbht);
    cfg.policy.useRetrySwitch = true;
    cfg.policy.retry.windowCycles = 1000;
    cfg.policy.retry.threshold = 8;

    SystemConfig faulty = cfg;
    faulty.fault.plan = "l3_retry:0:end:800";

    Simulation clean(cfg, longThrashWorkload());
    const Tick clean_time = clean.run().execTime;
    Simulation stormy(faulty, longThrashWorkload());
    const Tick storm_time = stormy.run().execTime;

    const auto stat = [&](Simulation &sim, const char *name) {
        return scalarValue(sim.system().retryMonitor(), name);
    };
    // The storm saturates the switch: the gate flips on and every
    // closed window stays over threshold. The clean run may flutter
    // organically, but its on-duty fraction must be strictly lower.
    EXPECT_GE(stat(stormy, "gate_transitions"), 1u);
    EXPECT_GT(stat(stormy, "windows_on"), 0u);
    EXPECT_EQ(stat(stormy, "windows_off"), 0u);
    const auto duty = [&](Simulation &sim) {
        const double on = static_cast<double>(stat(sim, "windows_on"));
        const double off =
            static_cast<double>(stat(sim, "windows_off"));
        return on / (on + off);
    };
    EXPECT_LT(duty(clean), duty(stormy));
    // And the storm visibly slows the machine down.
    EXPECT_GT(storm_time, clean_time);
}

TEST(FaultInjection, GateToggleShowsUpInSampledSeries)
{
    SystemConfig cfg;
    cfg.policy = PolicyConfig::make(WbPolicy::Wbht);
    cfg.policy.useRetrySwitch = true;
    cfg.policy.retry.windowCycles = 1000;
    cfg.policy.retry.threshold = 8;
    cfg.fault.plan = "l3_retry:0:end:800";
    cfg.obs.sampleEvery = 500;

    Simulation sim(cfg, longThrashWorkload());
    sim.run();
    ASSERT_TRUE(sim.sampled());
    const SampleSeries &s = sim.samples();

    const auto find_channel = [&](const std::string &name) {
        const auto it =
            std::find(s.names.begin(), s.names.end(), name);
        EXPECT_NE(it, s.names.end()) << "no channel " << name;
        return s.values[static_cast<std::size_t>(
            it - s.names.begin())];
    };
    // The gate gauge starts 0 and must reach 1 inside the run.
    const auto gate = find_channel("retry_monitor.wbht_active_now");
    EXPECT_EQ(gate.front(), 0.0);
    EXPECT_NE(std::find(gate.begin(), gate.end(), 1.0), gate.end());
    // The fault probes are wired into the sampler automatically.
    const auto injected = find_channel("fault.forced_l3_retries");
    EXPECT_GT(injected.back(), 0.0);
}

TEST(FaultInjection, DisableWbhtWindowSuppressesAborts)
{
    SystemConfig cfg = tunedConfig(WbPolicy::Wbht);
    const auto clean = [&] {
        Simulation sim(cfg, tunedThrashWorkload());
        return sim.run().wbAborted;
    }();
    ASSERT_GT(clean, 0u);

    SystemConfig off = cfg;
    off.fault.plan = "disable_wbht:0:end";
    Simulation sim(off, tunedThrashWorkload());
    EXPECT_EQ(sim.run().wbAborted, 0u);
}

TEST(FaultInjection, DropSnarfWindowSuppressesSnarfWins)
{
    SystemConfig cfg = tunedConfig(WbPolicy::Snarf);
    ASSERT_GT(Simulation(cfg, pingpongWorkload()).run().wbSnarfedPct, 0.0);

    SystemConfig drop = cfg;
    drop.fault.plan = "drop_snarf:0:end";
    EXPECT_EQ(Simulation(drop, pingpongWorkload()).run().wbSnarfedPct, 0.0);

    SystemConfig disable = cfg;
    disable.fault.plan = "disable_snarf:0:end";
    EXPECT_EQ(Simulation(disable, pingpongWorkload()).run().wbSnarfedPct,
              0.0);
}

TEST(FaultInjection, DelayWindowStretchesTheRun)
{
    SystemConfig cfg;
    const auto base = [&] {
        Simulation sim(cfg, thrashWorkload());
        return sim.run().execTime;
    }();

    SystemConfig slow = cfg;
    slow.fault.plan = "delay:0:end:32";
    Simulation sim(slow, thrashWorkload());
    EXPECT_GT(sim.run().execTime, base);
    EXPECT_GT(scalarValue(*sim.system().faultInjector(),
                          "delayed_launches"),
              0u);
}

TEST(FaultInjection, SweepWithFaultsIsThreadCountInvariant)
{
    SweepSpec spec;
    spec.workloads = {"thrash", "pingpong"};
    spec.policies = {WbPolicy::Wbht, WbPolicy::Combined};
    spec.outstanding = {4};
    spec.recordsPerThread = 800;
    spec.base.policy.useRetrySwitch = true;
    spec.base.policy.retry.windowCycles = 20000;
    spec.base.policy.retry.threshold = 10;
    spec.base.fault.plan = "l3_retry:0:200000:700;delay:0:end:8";
    spec.base.fault.seed = 11;
    spec.base.obs.sampleEvery = 10000;

    const auto serialize = [&](unsigned threads) {
        std::ostringstream os;
        writeSweepResultsJson(os, spec, runSweep(spec, threads));
        return os.str();
    };
    const std::string one = serialize(1);
    const std::string four = serialize(4);
    EXPECT_EQ(one, four);
    EXPECT_NE(one.find("\"timeSeries\""), std::string::npos);
}
