/**
 * @file
 * Conformance oracle tests, in two layers.
 *
 * The unit layer drives the oracle's hooks directly -- no simulator --
 * and pins down the shadow-model semantics one rule at a time: stale
 * supply detection at the combine point, the store write-epoch
 * discipline, the accounted-loss and warmup-taint tolerance rules, and
 * the self-refetch race the machine architecturally allows.
 *
 * The e2e layer runs the full machine with check.oracle on: a heavy
 * sharing workload must come back clean, and the mutation-kill case
 * re-opens a fixed snarf/write-back race through the test-only
 * wb_blind_spot fault and requires the oracle to catch it as a
 * structured Conformance error.
 */

#include <gtest/gtest.h>

#include "check/version_oracle.hh"
#include "common/error.hh"
#include "sim/simulation.hh"
#include "trace/workloads_stress.hh"

using namespace cmpcache;

namespace
{

constexpr AgentId kL3 = 200;
constexpr Addr kLine = 0x4000;

BusRequest
request(AgentId who, BusCmd cmd = BusCmd::Read, Addr line = kLine)
{
    BusRequest req;
    req.lineAddr = line;
    req.cmd = cmd;
    req.requester = who;
    return req;
}

CombinedResult
combined(CombinedResp resp, AgentId source = InvalidAgent)
{
    CombinedResult res;
    res.resp = resp;
    res.source = source;
    return res;
}

/** Fill @p who from memory (legal while nothing was stored yet). */
void
fill(VersionOracle &o, AgentId who, Tick now)
{
    o.onCombined(request(who), combined(CombinedResp::MemData), now);
}

} // namespace

TEST(VersionOracleUnit, CleanFillStoreSupplyFlow)
{
    VersionOracle o(kL3);
    fill(o, 1, 10);
    o.onStore(1, kLine, 11);
    // Agent 1 now owns the newest version; it is the legal supplier.
    EXPECT_NO_THROW(o.onCombined(request(2),
                                 combined(CombinedResp::L2Data, 1), 20));
    EXPECT_FALSE(o.violated());
    EXPECT_EQ(o.storesStamped(), 1u);
    EXPECT_EQ(o.deliveriesChecked(), 2u);
}

TEST(VersionOracleUnit, StalePeerSupplyThrowsConformance)
{
    VersionOracle o(kL3);
    fill(o, 1, 10);
    fill(o, 2, 11);
    o.onStore(1, kLine, 12); // agent 2's copy is now one epoch behind
    try {
        o.onCombined(request(3), combined(CombinedResp::L2Data, 2), 20);
        FAIL() << "stale supply not detected";
    } catch (const SimException &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Conformance);
        EXPECT_NE(e.error().message.find("stale"), std::string::npos)
            << e.error().message;
    }
}

TEST(VersionOracleUnit, StaleMemorySupplyThrowsConformance)
{
    VersionOracle o(kL3);
    fill(o, 1, 10);
    o.onStore(1, kLine, 11); // memory still at version 0
    EXPECT_THROW(fill(o, 2, 20), SimException);
}

TEST(VersionOracleUnit, StoreOnStaleCopyIsRecordedNotThrown)
{
    VersionOracle o(kL3);
    fill(o, 1, 10);
    fill(o, 2, 11);
    o.onStore(1, kLine, 12);
    // Hooks off the serial path record; the combine point throws.
    o.onStore(2, kLine, 13);
    EXPECT_TRUE(o.violated());
    EXPECT_NE(o.violationMessage().find("stale copy"),
              std::string::npos);
    EXPECT_THROW(o.throwIfViolated(), SimException);
    // throwIfViolated disarms so post-mortem inspection can continue.
    EXPECT_FALSE(o.violated());
}

TEST(VersionOracleUnit, StoreWithoutShadowCopyIsRecorded)
{
    VersionOracle o(kL3);
    o.onStore(5, kLine, 1);
    EXPECT_TRUE(o.violated());
    EXPECT_NE(o.violationMessage().find("no shadow copy"),
              std::string::npos);
}

TEST(VersionOracleUnit, AccountedDropRollsCommittedBack)
{
    VersionOracle o(kL3);
    fill(o, 1, 10);
    o.onStore(1, kLine, 11);
    // The machine accounts this loss (e.g. a won dirty snarf dropped
    // on a full WB queue): the oracle degrades with it instead of
    // flagging the now-stale survivors.
    o.onDropCopy(1, kLine, 20);
    EXPECT_EQ(o.reconciliations(), 1u);
    EXPECT_FALSE(o.violated());
    // Memory (version 0) is now the newest *available* version, so
    // serving it is conformant.
    EXPECT_NO_THROW(fill(o, 2, 30));
    EXPECT_FALSE(o.violated());
}

TEST(VersionOracleUnit, SquashDroppingLastNewestCopyFlags)
{
    VersionOracle o(kL3);
    fill(o, 1, 10);
    o.onStore(1, kLine, 11);
    // An *unaccounted* loss of the only newest copy is a bug.
    o.onLocalSquash(1, kLine, 20);
    EXPECT_TRUE(o.violated());
    EXPECT_NE(o.violationMessage().find("squashed"), std::string::npos);
}

TEST(VersionOracleUnit, WarmupTaintSuppressesValidation)
{
    VersionOracle o(kL3);
    // Warmup seeds the same line writable into two L2s -- a known
    // approximation, tainted at seal time.
    o.onSeedCopy(1, kLine, true);
    o.onSeedCopy(2, kLine, true);
    o.sealSeeding();
    EXPECT_EQ(o.taintedLines(), 1u);
    o.onStore(3, kLine, 5); // would flag "no shadow copy" if untainted
    EXPECT_FALSE(o.violated());
}

TEST(VersionOracleUnit, L3SeedDoesNotTaint)
{
    VersionOracle o(kL3);
    o.onSeedCopy(1, kLine, true);
    o.onSeedCopy(kL3, kLine, true); // L3 copy: not an L2 holder
    o.sealSeeding();
    EXPECT_EQ(o.taintedLines(), 0u);
}

TEST(VersionOracleUnit, SelfRefetchRaceIsTolerated)
{
    VersionOracle o(kL3);
    fill(o, 1, 10);
    o.onStore(1, kLine, 11);
    // Agent 1 demand-misses the line parked in its own WB queue and
    // memory serves version 0: the newest version never left the
    // requester, so this stale supply is the machine's accepted
    // self-race.
    EXPECT_NO_THROW(fill(o, 1, 20));
    EXPECT_FALSE(o.violated());
    // The shadow copy kept its newer version and its write-back duty.
    EXPECT_NO_THROW(o.onStore(1, kLine, 21));
    EXPECT_FALSE(o.violated());
}

TEST(VersionOracleUnit, ReadExclInvalidatesOtherHolders)
{
    VersionOracle o(kL3);
    fill(o, 1, 10);
    fill(o, 2, 11);
    o.onCombined(request(3, BusCmd::ReadExcl),
                 combined(CombinedResp::MemData), 20);
    o.onStore(3, kLine, 21);
    // Agents 1 and 2 were invalidated by the effective ReadExcl; a
    // store at either must now flag.
    o.onStore(1, kLine, 22);
    EXPECT_TRUE(o.violated());
}

// ---------------------------------------------------------------
// e2e: the full machine under check.oracle.
// ---------------------------------------------------------------

namespace
{

SystemConfig
oracleConfig()
{
    SystemConfig cfg;
    cfg.topology = TopologyParams::flat(4, 4);
    // Small caches force eviction/write-back traffic -- the racy part.
    cfg.l2.sizeBytes = 16 * 1024;
    cfg.l2.assoc = 4;
    cfg.l3.sizeBytes = 64 * 1024;
    cfg.l3.assoc = 4;
    cfg.cpu.maxOutstanding = 6;
    cfg.policy = PolicyConfig::combinedDefault();
    cfg.policy.wbht.entries = 1024;
    cfg.policy.snarf.entries = 1024;
    cfg.warmupPass = false;
    cfg.check.oracle = true;
    cfg.check.invariantsEvery = 8192;
    return cfg;
}

WorkloadParams
sharingWorkload(std::uint64_t seed)
{
    WorkloadParams p = workloads::producerConsumerStress(2500, seed, 96);
    p.numThreads = 16;
    return p;
}

} // namespace

TEST(VersionOracleE2e, CleanRunAcrossKernelThreadCounts)
{
    Simulation sim(oracleConfig(), sharingWorkload(17));
    const ExperimentResult &r = sim.run();
    ASSERT_GT(r.execTime, 0u);
    VersionOracle *o = sim.system().conformanceOracle();
    ASSERT_NE(o, nullptr);
    EXPECT_FALSE(o->violated());
    EXPECT_GT(o->deliveriesChecked(), 0u);
    EXPECT_GT(o->storesStamped(), 0u);
}

TEST(VersionOracleE2e, WarmupSeededRunStaysClean)
{
    SystemConfig cfg = oracleConfig();
    cfg.warmupPass = true;
    Simulation sim(cfg, sharingWorkload(23));
    EXPECT_NO_THROW(sim.run());
    VersionOracle *o = sim.system().conformanceOracle();
    ASSERT_NE(o, nullptr);
    EXPECT_FALSE(o->violated());
}

TEST(VersionOracleE2e, WbBlindSpotMutationIsKilled)
{
    // The test-only wb_blind_spot fault hides transient write-back
    // copies from snooping peers -- exactly the PR-1 family race. The
    // oracle must catch the resulting stale data at the cycle it is
    // delivered, as a structured Conformance error.
    SystemConfig cfg = oracleConfig();
    cfg.fault.plan = "wb_blind_spot:0:end";
    Simulation sim(cfg, sharingWorkload(17));
    try {
        sim.run();
        FAIL() << "wb_blind_spot mutation survived the oracle";
    } catch (const SimException &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Conformance);
        EXPECT_NE(e.error().message.find("conformance violation"),
                  std::string::npos)
            << e.error().message;
    }
}
