/** @file Tests for workload key=value configuration. */

#include <gtest/gtest.h>

#include "trace/workload_config.hh"

using namespace cmpcache;

TEST(WorkloadConfig, KeyPrefixDetection)
{
    EXPECT_TRUE(isWorkloadKey("wl.refs"));
    EXPECT_TRUE(isWorkloadKey("wl.private_zipf"));
    EXPECT_FALSE(isWorkloadKey("l2.size_bytes"));
    EXPECT_FALSE(isWorkloadKey("wlrefs"));
}

TEST(WorkloadConfig, AppliesIntegerAndDoubleKeys)
{
    WorkloadParams p;
    applyWorkloadOption(p, "wl.refs", "12345");
    applyWorkloadOption(p, "wl.private_lines", "2048");
    applyWorkloadOption(p, "wl.private_zipf", "0.9");
    applyWorkloadOption(p, "wl.store_frac", "0.33");
    applyWorkloadOption(p, "wl.private_group_size", "4");
    EXPECT_EQ(p.recordsPerThread, 12345u);
    EXPECT_EQ(p.privateLines, 2048u);
    EXPECT_DOUBLE_EQ(p.privateZipf, 0.9);
    EXPECT_DOUBLE_EQ(p.storeFrac, 0.33);
    EXPECT_EQ(p.privateGroupSize, 4u);
}

TEST(WorkloadConfig, AppliesName)
{
    WorkloadParams p;
    applyWorkloadOption(p, "wl.name", "custom");
    EXPECT_EQ(p.name, "custom");
}

TEST(WorkloadConfigDeath, UnknownKeyIsFatal)
{
    WorkloadParams p;
    EXPECT_EXIT(applyWorkloadOption(p, "wl.banana", "1"),
                ::testing::ExitedWithCode(1), "unknown workload key");
}

TEST(WorkloadConfigDeath, MalformedValueIsFatal)
{
    WorkloadParams p;
    EXPECT_EXIT(applyWorkloadOption(p, "wl.refs", "lots"),
                ::testing::ExitedWithCode(1), "expects an integer");
    // The config files' digits-only rule: no wrapping, no suffixes.
    EXPECT_EXIT(applyWorkloadOption(p, "wl.refs", "-1"),
                ::testing::ExitedWithCode(1), "expects an integer");
    EXPECT_EXIT(applyWorkloadOption(p, "wl.refs", "300abc"),
                ::testing::ExitedWithCode(1), "expects an integer");
}

TEST(WorkloadConfig, KeyListCoversEveryParamsField)
{
    // Structural check: at least one key per WorkloadParams member we
    // care about (guards against new fields silently missing).
    const auto &keys = workloadConfigKeys();
    EXPECT_GE(keys.size(), 19u);
    for (const char *needle :
         {"wl.refs", "wl.seed", "wl.threads", "wl.private_lines",
          "wl.shared_frac", "wl.kernel_frac", "wl.stream_frac",
          "wl.gap_mean", "wl.phase_length", "wl.shared_store_frac"}) {
        EXPECT_NE(std::find(keys.begin(), keys.end(), needle),
                  keys.end())
            << needle;
    }
}

TEST(WorkloadConfig, ConfiguredWorkloadGenerates)
{
    WorkloadParams p;
    p.numThreads = 2;
    applyWorkloadOption(p, "wl.refs", "100");
    applyWorkloadOption(p, "wl.private_lines", "32");
    applyWorkloadOption(p, "wl.gap_mean", "0");
    SyntheticWorkload wl(p);
    EXPECT_EQ(wl.materialize().size(), 200u);
}
