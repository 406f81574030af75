/**
 * @file
 * End-to-end observability test: a sampled run of the thrash stress
 * workload must produce a time series in which the WBHT enable bit
 * tracks retry-rate window crossings, and the run must record
 * coherence transactions for its Chrome trace (ctest
 * json_outputs_strict loads a traced run's export).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/simulation.hh"
#include "sim/sweep.hh"

using namespace cmpcache;

namespace
{

const std::vector<double> &
channel(const SampleSeries &s, const std::string &name)
{
    const auto it = std::find(s.names.begin(), s.names.end(), name);
    EXPECT_NE(it, s.names.end()) << "missing channel " << name;
    return s.values[static_cast<std::size_t>(it - s.names.begin())];
}

TEST(ObsE2eTest, ThrashGateTransitionsTrackRetryWindowCrossings)
{
    SystemConfig cfg;
    cfg.policy.policy = WbPolicy::Wbht;
    cfg.policy.useRetrySwitch = true;
    cfg.policy.retry.windowCycles = 20000;
    cfg.policy.retry.threshold = 10;
    cfg.obs.sampleEvery = 5000;
    cfg.obs.traceEnabled = true;

    Simulation sim(cfg,
                   sweepWorkloadByName("thrash", 4000, /*seed=*/1));
    sim.run();

    ASSERT_TRUE(sim.sampled());
    const SampleSeries &s = sim.samples();
    ASSERT_GE(s.numSamples(), 4u);

    const auto &active = channel(s, "retry_monitor.wbht_active_now");
    const auto &last_window =
        channel(s, "retry_monitor.last_window_retries");
    const auto &windows = channel(s, "retry_monitor.windows_elapsed");
    const auto &transitions =
        channel(s, "retry_monitor.gate_transitions");
    const auto &gate_l2 = channel(s, "l2_0.wbht_gate_now");

    const double threshold =
        static_cast<double>(cfg.policy.retry.threshold);

    // The workload must actually exercise the mechanism: windows
    // close and the gate flips at least once.
    EXPECT_GT(windows.back(), 0.0);
    EXPECT_GE(transitions.back(), 1.0);

    for (std::size_t k = 0; k < s.numSamples(); ++k) {
        // Once a window has closed, the enable bit is exactly the
        // last closed window's retry count tested against the
        // threshold -- the paper's 2000-retries/1M-cycles switch.
        if (windows[k] > 0.0) {
            EXPECT_EQ(active[k] != 0.0, last_window[k] >= threshold)
                << "sample " << k << " @ tick " << s.ticks[k];
        }
        // The L2's effective gate agrees with the monitor.
        EXPECT_EQ(gate_l2[k], active[k]) << "sample " << k;
        // The enable bit only moves at window boundaries.
        if (k > 0 && active[k] != active[k - 1]) {
            EXPECT_GT(windows[k], windows[k - 1])
                << "gate flipped without a window crossing at sample "
                << k;
        }
        // Observed flips are a lower bound on counted transitions.
        if (k > 0) {
            EXPECT_GE(transitions[k] - transitions[k - 1],
                      active[k] != active[k - 1] ? 1.0 : 0.0);
        }
    }

    // The trace recorded coherence transactions, each ending no
    // earlier than it started.
    ASSERT_TRUE(sim.traced());
    const auto events = sim.traceEvents();
    EXPECT_FALSE(events.empty());
    for (const auto &e : events)
        EXPECT_LE(e.start, e.end) << e.name;
}

TEST(ObsE2eTest, SamplingOffLeavesResultsUntouched)
{
    SystemConfig plain_cfg;
    Simulation plain(plain_cfg,
                     sweepWorkloadByName("thrash", 2000, 1));
    const ExperimentResult base = plain.run();

    SystemConfig sampled_cfg;
    sampled_cfg.obs.sampleEvery = 1000;
    sampled_cfg.obs.traceEnabled = true;
    Simulation sampled(sampled_cfg,
                       sweepWorkloadByName("thrash", 2000, 1));
    const ExperimentResult with_obs = sampled.run();

    // Sampling and tracing are pure observers: the simulated outcome
    // is bit-identical with them on or off.
    EXPECT_EQ(base, with_obs);
}

} // namespace
