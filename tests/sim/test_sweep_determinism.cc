/**
 * @file
 * The sweep runner's determinism contract: the same spec produces
 * field-for-field identical results and byte-identical JSON no matter
 * how many worker threads execute it or how often it is repeated.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "sim/config_io.hh"
#include "sim/sweep.hh"
#include "trace/workload_config.hh"

using namespace cmpcache;

namespace
{

/** A small but non-trivial grid: 2 workloads x 2 policies x 2 limits
 * on stress-sized caches, so cells finish fast yet exercise every
 * policy path the runner touches. */
SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.workloads = {"thrash", "pingpong"};
    spec.policies = {WbPolicy::Baseline, WbPolicy::Combined};
    spec.outstanding = {2, 6};
    spec.recordsPerThread = 800;
    spec.seed = 7;
    spec.base.l2.sizeBytes = 16 * 1024;
    spec.base.l2.assoc = 4;
    spec.base.l3.sizeBytes = 128 * 1024;
    spec.base.l3.assoc = 8;
    spec.base.policy.wbht.entries = 1024;
    spec.base.policy.snarf.entries = 1024;
    spec.base.policy.useRetrySwitch = false;
    spec.base.warmupPass = false;
    spec.checkCoherence = true;
    return spec;
}

std::string
resultsJson(const SweepSpec &spec,
            const std::vector<SweepJobResult> &results)
{
    std::ostringstream os;
    writeSweepResultsJson(os, spec, results);
    return os.str();
}

} // namespace

TEST(SweepExpand, DeterministicJobOrder)
{
    const SweepSpec spec = smallSpec();
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), spec.size());
    // Workload-major, then policy, then outstanding; indices dense.
    EXPECT_EQ(jobs[0].label(), "thrash/baseline/o2");
    EXPECT_EQ(jobs[1].label(), "thrash/baseline/o6");
    EXPECT_EQ(jobs[2].label(), "thrash/combined/o2");
    EXPECT_EQ(jobs[3].label(), "thrash/combined/o6");
    EXPECT_EQ(jobs[4].label(), "pingpong/baseline/o2");
    EXPECT_EQ(jobs[7].label(), "pingpong/combined/o6");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);
}

TEST(SweepExpand, CombinedHalvesBothTables)
{
    const SweepSpec spec = smallSpec();
    const auto jobs = spec.expand();
    for (const auto &job : jobs) {
        if (job.policy == WbPolicy::Combined) {
            EXPECT_EQ(job.config.policy.wbht.entries, 512u);
            EXPECT_EQ(job.config.policy.snarf.entries, 512u);
        } else {
            EXPECT_EQ(job.config.policy.wbht.entries, 1024u);
            EXPECT_EQ(job.config.policy.snarf.entries, 1024u);
        }
        EXPECT_EQ(job.config.cpu.maxOutstanding, job.outstanding);
    }
}

TEST(SweepExpand, WorkloadOverridesApply)
{
    SweepSpec spec = smallSpec();
    spec.workloadOverrides.emplace_back("wl.private_lines", "160");
    const auto jobs = spec.expand();
    for (const auto &job : jobs) {
        EXPECT_EQ(job.params.privateLines, 160u) << job.label();
        // The axis name survives the override.
        EXPECT_EQ(job.params.name, job.workload);
    }
}

TEST(SweepExpand, EveryWorkloadKeyTakesEffect)
{
    // One valid value per key, none of them TP's own.
    const std::map<std::string, std::string> values = {
        {"wl.gap_mean", "2.5"},
        {"wl.kernel_frac", "0.0123"},
        {"wl.kernel_lines", "77"},
        {"wl.phase_length", "777"},
        {"wl.phase_shift", "0.123"},
        {"wl.private_group_size", "2"},
        {"wl.private_lines", "777"},
        {"wl.private_zipf", "0.321"},
        {"wl.shared_frac", "0.0456"},
        {"wl.shared_lines", "77"},
        {"wl.shared_store_frac", "0.0789"},
        {"wl.shared_zipf", "0.321"},
        {"wl.store_frac", "0.0123"},
        {"wl.stream_frac", "0.0123"},
        {"wl.stream_lines", "77"},
    };
    SweepSpec spec;
    spec.workloads = {"TP"};
    spec.policies = {WbPolicy::Baseline};
    spec.outstanding = {6};
    const WorkloadParams plain = spec.expand()[0].params;
    for (const auto &key : workloadConfigKeys()) {
        const auto value = values.find(key);
        ASSERT_NE(value, values.end()) << "no test value for " << key;
        spec.workloadOverrides = {{key, value->second}};
        EXPECT_FALSE(spec.expand()[0].params == plain)
            << key << "=" << value->second << " was ignored";
    }
}

TEST(SweepExpand, LineSizeKeyReachesWorkloadAndBothCaches)
{
    SweepSpec spec = smallSpec();
    ASSERT_TRUE(applyConfigOption(spec.base, "l2.line_size", "64").ok());
    for (const auto &job : spec.expand()) {
        EXPECT_EQ(job.params.lineSize, 64u) << job.label();
        EXPECT_EQ(job.config.l2.lineSize, 64u) << job.label();
        EXPECT_EQ(job.config.l3.lineSize, 64u) << job.label();
    }
}

TEST(SweepDeterminism, RepeatedRunsIdentical)
{
    const SweepSpec spec = smallSpec();
    const auto a = runSweep(spec, 1);
    const auto b = runSweep(spec, 1);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].result, b[i].result) << "cell " << i;
        EXPECT_EQ(a[i].coherenceViolations, b[i].coherenceViolations);
    }
    EXPECT_EQ(resultsJson(spec, a), resultsJson(spec, b));
}

TEST(SweepDeterminism, ThreadCountInvariant)
{
    const SweepSpec spec = smallSpec();
    const auto serial = runSweep(spec, 1);
    const auto parallel = runSweep(spec, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].result, parallel[i].result)
            << "cell " << i << " differs between 1 and 4 threads";
        EXPECT_EQ(serial[i].coherenceViolations,
                  parallel[i].coherenceViolations);
    }
    // The acceptance bar: byte-identical serialized output.
    EXPECT_EQ(resultsJson(spec, serial), resultsJson(spec, parallel));
}

TEST(SweepDeterminism, ResultsCarryCellIdentity)
{
    const SweepSpec spec = smallSpec();
    const auto jobs = spec.expand();
    const auto results = runSweep(spec, 4);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].result.workload, jobs[i].workload);
        EXPECT_EQ(results[i].result.policy,
                  toString(jobs[i].policy));
        EXPECT_EQ(results[i].result.maxOutstanding,
                  jobs[i].outstanding);
        EXPECT_GT(results[i].result.execTime, 0u);
    }
}
