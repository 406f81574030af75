/** @file Tests for workload key=value configuration. */

#include <gtest/gtest.h>

#include "config_error.hh"
#include "sim/sweep.hh"
#include "trace/workload_config.hh"
#include "trace/workloads_commercial.hh"
#include "trace/workloads_stress.hh"

using namespace cmpcache;

namespace
{

/** TP resolved as a sweep cell with the one override @p key=@p value. */
WorkloadParams
resolveWith(const std::string &key, const std::string &value)
{
    return resolveWorkload("TP", 100, 1, {{key, value}}, SystemConfig{});
}

} // namespace

TEST(WorkloadConfig, KeyPrefixDetection)
{
    EXPECT_TRUE(isWorkloadKey("wl.phase_length"));
    EXPECT_TRUE(isWorkloadKey("wl.private_zipf"));
    EXPECT_FALSE(isWorkloadKey("l2.size_bytes"));
    EXPECT_FALSE(isWorkloadKey("wlrefs"));
}

TEST(WorkloadConfig, AppliesIntegerAndDoubleKeys)
{
    WorkloadParams p;
    EXPECT_TRUE(applyWorkloadOption(p, "wl.phase_length", "12345").ok());
    EXPECT_TRUE(applyWorkloadOption(p, "wl.private_lines", "2048").ok());
    EXPECT_TRUE(applyWorkloadOption(p, "wl.private_zipf", "0.9").ok());
    EXPECT_TRUE(applyWorkloadOption(p, "wl.store_frac", "0.33").ok());
    EXPECT_TRUE(
        applyWorkloadOption(p, "wl.private_group_size", "4").ok());
    EXPECT_EQ(p.phaseLength, 12345u);
    EXPECT_EQ(p.privateLines, 2048u);
    EXPECT_DOUBLE_EQ(p.privateZipf, 0.9);
    EXPECT_DOUBLE_EQ(p.storeFrac, 0.33);
    EXPECT_EQ(p.privateGroupSize, 4u);
}

TEST(WorkloadConfigDeath, UnknownKeyIsFatal)
{
    WorkloadParams p;
    EXPECT_TRUE(failsNaming(applyWorkloadOption(p, "wl.banana", "1"),
                            "unknown workload key"));
}

TEST(WorkloadConfigDeath, RemovedKeysNameTheirSuccessor)
{
    // The name, --refs, --seed, the topology and l2.line_size are the
    // one spelling of each of these.
    const std::pair<const char *, const char *> removed[] = {
        {"wl.name", "the --workloads or --workload value"},
        {"wl.threads", "topology.cores and topology.smt"},
        {"wl.refs", "--refs"},
        {"wl.seed", "--seed"},
        {"wl.line_size", "l2.line_size"},
    };
    for (const auto &[key, successor] : removed) {
        WorkloadParams p;
        EXPECT_TRUE(failsNaming(applyWorkloadOption(p, key, "1"),
                                std::string("unknown workload key '") + key
                                    + "'; use " + successor));
    }
}

TEST(WorkloadConfigDeath, MalformedValueIsFatal)
{
    WorkloadParams p;
    EXPECT_TRUE(failsNaming(applyWorkloadOption(p, "wl.phase_length", "lots"),
                            "expects an integer"));
    // The config files' digits-only rule: no wrapping, no suffixes.
    EXPECT_TRUE(failsNaming(applyWorkloadOption(p, "wl.phase_length", "-1"),
                            "expects an integer"));
    EXPECT_TRUE(
        failsNaming(applyWorkloadOption(p, "wl.phase_length", "300abc"),
                    "expects an integer"));
    EXPECT_TRUE(failsNaming(
        applyWorkloadOption(p, "wl.private_group_size", "4294967296"),
        "expects an integer from 0 to 4294967295"));
    // Real values: the whole token, and finite.
    for (const char *bad :
         {"0.3abc", "nan", "inf", "-inf", "1e999", " 0.3", "0x1p-2",
          ""}) {
        EXPECT_TRUE(failsNaming(applyWorkloadOption(p, "wl.store_frac", bad),
                                "'wl.store_frac' expects a finite number"))
            << "'" << bad << "'";
    }
}

TEST(WorkloadConfig, KeyListCoversEveryParamsField)
{
    // Every generator-shape field of WorkloadParams has one key; the
    // identity fields (name, threads, records, seed, line size) have
    // none.
    const auto &keys = workloadConfigKeys();
    EXPECT_EQ(keys.size(), 15u);
    for (const char *needle :
         {"wl.private_lines", "wl.shared_frac", "wl.kernel_frac",
          "wl.stream_frac", "wl.gap_mean", "wl.phase_length",
          "wl.shared_store_frac"}) {
        EXPECT_NE(std::find(keys.begin(), keys.end(), needle),
                  keys.end())
            << needle;
    }
}

TEST(WorkloadConfig, ConfiguredWorkloadGenerates)
{
    WorkloadParams p;
    p.numThreads = 2;
    p.recordsPerThread = 100;
    ASSERT_TRUE(applyWorkloadOption(p, "wl.private_lines", "32").ok());
    ASSERT_TRUE(applyWorkloadOption(p, "wl.gap_mean", "0").ok());
    SyntheticWorkload wl(p);
    EXPECT_EQ(wl.materialize().size(), 200u);
}

TEST(WorkloadConfig, BuiltInWorkloadsPassTheRangeCheck)
{
    std::vector<std::string> names = workloads::allNames();
    for (const auto &n : workloads::stressNames())
        names.push_back(n);
    for (const auto &name : names) {
        const auto errs =
            workloadParamErrors(sweepWorkloadByName(name, 100, 1));
        EXPECT_TRUE(errs.empty()) << name << ": " << errs.front();
    }
}

// One case per range rule: resolving a cell whose override breaks the
// rule throws a Config error naming the key.

TEST(WorkloadConfigDeath, FractionsLieInTheUnitInterval)
{
    for (const char *key :
         {"wl.kernel_frac", "wl.shared_frac", "wl.stream_frac",
          "wl.store_frac", "wl.phase_shift"}) {
        EXPECT_TRUE(throwsNaming([&] { resolveWith(key, "1.5"); },
                                 std::string(key) + " (1.5) must lie in"));
        EXPECT_TRUE(throwsNaming([&] { resolveWith(key, "-0.5"); },
                                 std::string(key) + " (-0.5) must lie in"));
    }
}

TEST(WorkloadConfigDeath, RegionFractionsSumToAtMostOne)
{
    // TP's kernel and shared shares are 0.06 and 0.32.
    EXPECT_TRUE(throwsNaming([] { resolveWith("wl.stream_frac", "0.7"); },
                             "wl.kernel_frac + wl.shared_frac + "
                             "wl.stream_frac (1.08) must be at most 1"));
    EXPECT_EQ(resolveWith("wl.stream_frac", "0.62").streamFrac, 0.62);
}

TEST(WorkloadConfigDeath, SharedStoreFracIsAFractionOrNegative)
{
    // Negative keeps its meaning "same as wl.store_frac".
    EXPECT_EQ(resolveWith("wl.shared_store_frac", "-1").sharedStoreFrac,
              -1.0);
    EXPECT_TRUE(
        throwsNaming([] { resolveWith("wl.shared_store_frac", "1.5"); },
                     "wl.shared_store_frac (1.5) must lie in"));
}

TEST(WorkloadConfigDeath, RatesAreNonNegative)
{
    for (const char *key :
         {"wl.gap_mean", "wl.private_zipf", "wl.shared_zipf"}) {
        EXPECT_TRUE(
            throwsNaming([&] { resolveWith(key, "-1"); },
                         std::string(key) + " (-1) must be at least 0"));
    }
}

TEST(WorkloadConfigDeath, SizesArePositive)
{
    for (const char *key :
         {"wl.private_lines", "wl.shared_lines", "wl.kernel_lines",
          "wl.stream_lines", "wl.private_group_size"}) {
        EXPECT_TRUE(throwsNaming([&] { resolveWith(key, "0"); },
                                 std::string(key) + " (0) must be at least 1"));
    }
}

TEST(WorkloadConfigDeath, RegionsFitThePerThreadSpan)
{
    // 1 GiB of 128-byte lines is the most any region may hold: more
    // would overlap the next thread's region (or, for the shared and
    // kernel regions, build an unbounded CDF table).
    for (const char *key :
         {"wl.private_lines", "wl.shared_lines", "wl.kernel_lines",
          "wl.stream_lines"}) {
        resolveWith(key, "8388608"); // exactly 1 GiB: accepted
        EXPECT_TRUE(throwsNaming(
            [&] { resolveWith(key, "8388609"); },
            std::string(key)
                + " (8388609) at 128 B per line exceeds the "
                  "1073741824-byte region limit: at most 8388608 lines"));
    }
    EXPECT_TRUE(throwsNaming(
        [] { resolveWith("wl.shared_lines", "18446744073709551615"); },
        "wl.shared_lines (18446744073709551615)"));
}

TEST(WorkloadConfigDeath, RegionLimitFollowsTheLineSize)
{
    // streaming walks 4 Mi lines: 512 MiB at 128 B, 2 GiB at 512 B.
    SystemConfig cfg;
    cfg.l2.lineSize = cfg.l3.lineSize = 256;
    EXPECT_EQ(resolveWorkload("streaming", 100, 1, {}, cfg).lineSize,
              256u);
    cfg.l2.lineSize = cfg.l3.lineSize = 512;
    EXPECT_TRUE(
        throwsNaming([&] { resolveWorkload("streaming", 100, 1, {}, cfg); },
                     "wl.stream_lines (4194304) at 512 B per line exceeds"));
}
