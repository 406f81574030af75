/**
 * @file
 * Property-based whole-system tests: randomized workloads replayed
 * through the full machine, followed by global coherence-state
 * invariant checks across every L2 and the L3. Parameterized over
 * seeds and policies so each instantiation explores a different
 * interleaving. The conformance oracle (check.oracle) is forced on
 * for every property run.
 *
 * A second half forges illegal coherence states directly into the tag
 * arrays -- dual owners, E beside a sharer, a stale L3 copy, dangling
 * snarf bookkeeping -- and requires the checker's negative paths to
 * fire on each.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/logging.hh"
#include "l2/l2_cache.hh"
#include "mem/tag_array.hh"
#include "sim/cmp_system.hh"
#include "sim/invariants.hh"
#include "trace/workload.hh"

using namespace cmpcache;

namespace
{

struct InvariantCase
{
    std::uint64_t seed;
    WbPolicy policy;
    unsigned outstanding;
};

std::string
caseName(const ::testing::TestParamInfo<InvariantCase> &info)
{
    std::string s = cstr("seed", info.param.seed, "_",
                         toString(info.param.policy), "_o",
                         info.param.outstanding);
    for (auto &c : s)
        if (c == '-')
            c = '_';
    return s;
}

class CoherenceInvariants
    : public ::testing::TestWithParam<InvariantCase>
{
  protected:
    static SystemConfig
    config(const InvariantCase &c)
    {
        SystemConfig cfg;
        cfg.topology = TopologyParams::flat(4, 4);
        // Small caches force heavy eviction/invalidation traffic.
        cfg.l2.sizeBytes = 16 * 1024;
        cfg.l2.assoc = 4;
        cfg.l3.sizeBytes = 64 * 1024;
        cfg.l3.assoc = 4;
        cfg.cpu.maxOutstanding = c.outstanding;
        cfg.policy = c.policy == WbPolicy::Combined
                         ? PolicyConfig::combinedDefault()
                         : PolicyConfig::make(c.policy);
        cfg.policy.retry.windowCycles = 20000;
        cfg.policy.retry.threshold = 10;
        cfg.policy.wbht.entries = 1024;
        cfg.policy.snarf.entries = 1024;
        cfg.warmupPass = false;
        // The conformance oracle rides along on every property run:
        // stale data anywhere in these interleavings fails the test
        // at the offending transaction, not as end-of-run skew.
        cfg.check.oracle = true;
        return cfg;
    }

    static WorkloadParams
    workload(std::uint64_t seed)
    {
        WorkloadParams p;
        p.numThreads = 16;
        p.recordsPerThread = 3000;
        p.seed = seed;
        p.privateLines = 96; // tiny: constant thrash
        p.privateZipf = 0.4;
        p.sharedLines = 64;
        p.sharedFrac = 0.35; // heavy sharing: invalidation storms
        p.kernelFrac = 0.05;
        p.kernelLines = 32;
        p.streamFrac = 0.05;
        p.streamLines = 4096;
        p.storeFrac = 0.35;
        p.gapMean = 2.0;
        p.phaseLength = 500;
        return p;
    }
};

} // namespace

TEST_P(CoherenceInvariants, RunAndCheckGlobalState)
{
    const auto c = GetParam();
    SyntheticWorkload wl(workload(c.seed));
    CmpSystem sys(config(c), wl.makeBundle());
    const Tick t = sys.run();
    EXPECT_GT(t, 0u);
    EXPECT_TRUE(sys.finished());

    // The drained-machine check `sweep --check-coherence` runs.
    const CoherenceCheck check = checkDrainedCoherence(sys);
    EXPECT_GT(check.linesChecked, 0u);
    EXPECT_EQ(check.violations, 0u) << check.report();

    // Determinism: rerunning the same case gives the same runtime.
    SyntheticWorkload wl2(workload(c.seed));
    CmpSystem sys2(config(c), wl2.makeBundle());
    EXPECT_EQ(sys2.run(), t);
}

// ---------------------------------------------------------------
// Negative paths: forge illegal states directly into the tag arrays
// and require the checker to call each one out. These are the states
// a correctly working machine can never reach, so the only way to
// test the rules is to fabricate them.
// ---------------------------------------------------------------

namespace
{

/** A tiny idle machine whose tags we can forge. Never run. */
class ForgedState : public ::testing::Test
{
  protected:
    ForgedState()
    {
        SystemConfig cfg;
        cfg.topology = TopologyParams::flat(2, 1);
        cfg.warmupPass = false;
        WorkloadParams p;
        p.numThreads = 2;
        p.recordsPerThread = 1;
        SyntheticWorkload wl(p);
        sys_ = std::make_unique<CmpSystem>(cfg, wl.makeBundle());
        line_ = sys_->l2(0).tags().lineAlign(0x8000);
    }

    void
    forgeL2(unsigned l2, LineState state)
    {
        TagArray &tags = sys_->l2(l2).tags();
        tags.insert(tags.findVictim(line_), line_, state);
    }

    void
    forgeL3(LineState state)
    {
        TagArray &tags = sys_->l3().tags();
        tags.insert(tags.findVictim(line_), line_, state);
    }

    std::unique_ptr<CmpSystem> sys_;
    Addr line_ = 0;
};

} // namespace

TEST_F(ForgedState, DualOwnersAreFlagged)
{
    forgeL2(0, LineState::Modified);
    forgeL2(1, LineState::Modified);
    const CoherenceCheck check =
        checkCoherence(*sys_, CoherenceCheckOptions{});
    // Both the dual-owner and the M-alongside-copies rule fire.
    EXPECT_GE(check.violations, 2u);
    EXPECT_NE(check.report().find("dirty owners"), std::string::npos)
        << check.report();
}

TEST_F(ForgedState, ExclusiveAlongsideSharerIsFlagged)
{
    forgeL2(0, LineState::Exclusive);
    forgeL2(1, LineState::Shared);
    const CoherenceCheck check =
        checkCoherence(*sys_, CoherenceCheckOptions{});
    EXPECT_EQ(check.violations, 1u);
    EXPECT_NE(check.report().find("E alongside"), std::string::npos)
        << check.report();
}

TEST_F(ForgedState, StaleL3CopyIsAdvisoryOptIn)
{
    forgeL2(0, LineState::Modified);
    forgeL3(LineState::Shared);
    // Default options skip the L3 rule: the architected self-refetch
    // race makes "owned L2 copy + valid L3 copy" reachable on a
    // correct machine (see invariants.hh).
    EXPECT_EQ(
        checkCoherence(*sys_, CoherenceCheckOptions{}).violations, 0u);
    CoherenceCheckOptions opts;
    opts.checkL3 = true;
    const CoherenceCheck check = checkCoherence(*sys_, opts);
    EXPECT_EQ(check.violations, 1u);
    EXPECT_NE(check.report().find("stale L3"), std::string::npos)
        << check.report();
}

TEST_F(ForgedState, DanglingSnarfEntryFlaggedOnlyWhenQuiesced)
{
    sys_->l2(1).forgePendingSnarfForTest(line_);
    // Mid-run a pending reservation is normal bookkeeping...
    EXPECT_EQ(
        checkCoherence(*sys_, CoherenceCheckOptions{}).violations, 0u);
    // ...but on a drained machine it means a transaction leaked.
    const CoherenceCheck check = checkDrainedCoherence(*sys_);
    EXPECT_EQ(check.violations, 1u);
    EXPECT_NE(check.report().find("dangling snarf"), std::string::npos)
        << check.report();
}

TEST_F(ForgedState, MessageCapStillCountsEverything)
{
    // Forge many bad lines; the report caps messages but never the
    // violation count. The stride is a page, comfortably above any
    // configured line size, so the 8 addresses stay distinct lines.
    for (unsigned i = 0; i < 8; ++i) {
        const Addr line =
            sys_->l2(0).tags().lineAlign(0x8000 + i * 0x1000);
        TagArray &a = sys_->l2(0).tags();
        TagArray &b = sys_->l2(1).tags();
        a.insert(a.findVictim(line), line, LineState::Modified);
        b.insert(b.findVictim(line), line, LineState::Modified);
    }
    CoherenceCheckOptions opts;
    opts.maxMessages = 3;
    const CoherenceCheck check = checkCoherence(*sys_, opts);
    EXPECT_EQ(check.messages.size(), 3u);
    EXPECT_GE(check.violations, 16u);
    EXPECT_NE(check.report().find("more"), std::string::npos);
}

TEST(DrainedCheck, CountsAReservationLeftOnAFinishedRun)
{
    // A snarf run drains clean; the same machine with one forged
    // reservation must fail the check `sweep --check-coherence` runs
    // on every finished cell.
    SystemConfig cfg;
    cfg.policy = PolicyConfig::make(WbPolicy::Snarf);
    cfg.warmupPass = false;
    WorkloadParams p;
    p.numThreads = cfg.numThreads();
    p.recordsPerThread = 2000;
    SyntheticWorkload wl(p);
    CmpSystem sys(cfg, wl.makeBundle());
    sys.run();
    ASSERT_TRUE(sys.finished());
    EXPECT_TRUE(checkDrainedCoherence(sys).clean())
        << checkDrainedCoherence(sys).report();

    sys.l2(2).forgePendingSnarfForTest(0x8000);
    const CoherenceCheck check = checkDrainedCoherence(sys);
    EXPECT_EQ(check.violations, 1u);
    EXPECT_NE(check.report().find("dangling snarf reservations in "
                                  "quiesced L2 2: 1"),
              std::string::npos)
        << check.report();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoherenceInvariants,
    ::testing::Values(
        InvariantCase{1, WbPolicy::Baseline, 6},
        InvariantCase{2, WbPolicy::Baseline, 2},
        InvariantCase{3, WbPolicy::Wbht, 6},
        InvariantCase{4, WbPolicy::WbhtGlobal, 6},
        InvariantCase{5, WbPolicy::Snarf, 6},
        InvariantCase{6, WbPolicy::Snarf, 3},
        InvariantCase{7, WbPolicy::Combined, 6},
        InvariantCase{8, WbPolicy::Combined, 1},
        InvariantCase{9, WbPolicy::Baseline, 1},
        InvariantCase{10, WbPolicy::Combined, 4}),
    caseName);
