/** @file Unit tests for policy configuration. */

#include <gtest/gtest.h>

#include "config_error.hh"
#include "core/policy.hh"

using namespace cmpcache;

TEST(Policy, RoundTripNames)
{
    for (const auto p :
         {WbPolicy::Baseline, WbPolicy::Wbht, WbPolicy::WbhtGlobal,
          WbPolicy::Snarf, WbPolicy::Combined}) {
        EXPECT_EQ(wbPolicyFromString(toString(p)).value(), p);
    }
}

TEST(PolicyDeath, UnknownNameIsFatal)
{
    EXPECT_TRUE(failsNaming(wbPolicyFromString("magic"),
                            "unknown write-back"));
}

TEST(Policy, FeatureFlags)
{
    EXPECT_FALSE(PolicyConfig::make(WbPolicy::Baseline).usesWbht());
    EXPECT_FALSE(PolicyConfig::make(WbPolicy::Baseline).usesSnarf());

    EXPECT_TRUE(PolicyConfig::make(WbPolicy::Wbht).usesWbht());
    EXPECT_FALSE(PolicyConfig::make(WbPolicy::Wbht).usesSnarf());
    EXPECT_FALSE(
        PolicyConfig::make(WbPolicy::Wbht).globalWbhtAllocation());

    EXPECT_TRUE(
        PolicyConfig::make(WbPolicy::WbhtGlobal).usesWbht());
    EXPECT_TRUE(
        PolicyConfig::make(WbPolicy::WbhtGlobal).globalWbhtAllocation());

    EXPECT_FALSE(PolicyConfig::make(WbPolicy::Snarf).usesWbht());
    EXPECT_TRUE(PolicyConfig::make(WbPolicy::Snarf).usesSnarf());

    EXPECT_TRUE(PolicyConfig::make(WbPolicy::Combined).usesWbht());
    EXPECT_TRUE(PolicyConfig::make(WbPolicy::Combined).usesSnarf());
}

TEST(Policy, PaperDefaultTableSizes)
{
    const auto single = PolicyConfig::make(WbPolicy::Wbht);
    EXPECT_EQ(single.wbht.entries, 32768u);
    EXPECT_EQ(single.wbht.assoc, 16u);

    // Section 5.3: combined halves both tables to 16 K entries.
    const auto comb = PolicyConfig::combinedDefault();
    EXPECT_EQ(comb.policy, WbPolicy::Combined);
    EXPECT_EQ(comb.wbht.entries, 16384u);
    EXPECT_EQ(comb.snarf.entries, 16384u);
}

TEST(Policy, PaperDefaultRetrySwitch)
{
    const PolicyConfig c;
    EXPECT_TRUE(c.useRetrySwitch);
    EXPECT_EQ(c.retry.windowCycles, 1000000u);
    EXPECT_EQ(c.retry.threshold, 2000u);
}

TEST(Policy, SnarfDefaults)
{
    const PolicyConfig c;
    EXPECT_TRUE(c.snarfSharedVictims);
    EXPECT_EQ(c.snarfInsert, InsertPos::Mru);
    EXPECT_GT(c.snarfBuffers, 0u);
}
