/**
 * @file
 * Integration tests: directed reference streams through the full
 * CmpSystem, checking end-to-end protocol behaviour and timing.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/cmp_system.hh"
#include "stats/sink.hh"

using namespace cmpcache;

namespace
{

/**
 * Small deterministic machine: 2 L2s x 1 thread, tiny caches so
 * evictions are easy to force.
 *  - L2: 1 KB, 2-way, 128 B lines -> 4 sets; same-set stride 512 B.
 *  - L3: 4 KB, 2-way -> 16 sets.
 */
SystemConfig
microConfig()
{
    SystemConfig cfg;
    cfg.topology = TopologyParams::flat(2, 1);
    cfg.l2.sizeBytes = 1024;
    cfg.l2.assoc = 2;
    cfg.l3.sizeBytes = 4096;
    cfg.l3.assoc = 2;
    cfg.cpu.maxOutstanding = 6;
    return cfg;
}

TraceBundle
bundleOf(std::vector<std::vector<TraceRecord>> per_thread)
{
    TraceBundle b;
    for (auto &v : per_thread)
        b.perThread.push_back(
            std::make_unique<VectorSource>(std::move(v)));
    return b;
}

TraceRecord
ld(Addr a, ThreadId tid = 0, std::uint32_t gap = 0)
{
    return TraceRecord{a, gap, tid, MemOp::Load};
}

TraceRecord
st(Addr a, ThreadId tid = 0, std::uint32_t gap = 0)
{
    return TraceRecord{a, gap, tid, MemOp::Store};
}

/** Same-set addresses in the micro L2 (4 sets x 128 B lines). */
constexpr Addr SetStride = 512;

} // namespace

TEST(CmpSystem, SingleMissPaysRoughlyMemoryLatency)
{
    auto cfg = microConfig();
    CmpSystem sys(cfg, bundleOf({{ld(0x0)}, {}}));
    const Tick t = sys.run();
    // Table 3: 431 cycles from the core, contention-free (the exact
    // value depends on ring distance).
    EXPECT_GE(t, 400u);
    EXPECT_LE(t, 460u);
    EXPECT_EQ(sys.mem().reads(), 1u);
    EXPECT_EQ(sys.l3().loadHits(), 0u);
}

TEST(CmpSystem, PaperMachineSingleMissTakes427Cycles)
{
    // Table 3's composed contention-free memory latency: one load from
    // thread 0 of 16 on the default machine with cold caches. The
    // paper reports 431 cycles; the gap is ring-distance rounding.
    SystemConfig cfg;
    cfg.warmupPass = false;
    ASSERT_EQ(cfg.numThreads(), 16u);
    std::vector<std::vector<TraceRecord>> per_thread(16);
    per_thread[0] = {ld(0x0)};
    CmpSystem sys(cfg, bundleOf(std::move(per_thread)));
    EXPECT_EQ(sys.run(), 427u);
    EXPECT_EQ(sys.mem().reads(), 1u);
}

TEST(CmpSystem, SecondAccessHits)
{
    auto cfg = microConfig();
    // The second access arrives after the fill (gap 2000).
    CmpSystem sys(cfg, bundleOf({{ld(0x0), ld(0x40, 0, 2000)}, {}}));
    sys.run();
    EXPECT_EQ(sys.mem().reads(), 1u);
    EXPECT_EQ(sys.l2(0).demandHits(), 1u);
    EXPECT_EQ(sys.l2(0).demandAccesses(), 2u);
}

TEST(CmpSystem, BackToBackMissesCoalesce)
{
    auto cfg = microConfig();
    // Same-line accesses in the same cycle share one MSHR: a single
    // memory fetch services both.
    CmpSystem sys(cfg, bundleOf({{ld(0x0), ld(0x40)}, {}}));
    sys.run();
    EXPECT_EQ(sys.mem().reads(), 1u);
    EXPECT_EQ(sys.l2(0).demandAccesses(), 2u);
    const auto *c = sys.l2(0).find("coalesced_misses");
    EXPECT_EQ(dynamic_cast<const stats::Scalar *>(c)->value(), 1u);
}

TEST(CmpSystem, InterventionServicesPeerMiss)
{
    auto cfg = microConfig();
    // Thread 1 (on L2_1) reads the line well after thread 0 fetched
    // it into L2_0.
    CmpSystem sys(
        cfg, bundleOf({{ld(0x0)}, {ld(0x0, 1, 2000)}}));
    sys.run();
    EXPECT_EQ(sys.mem().reads(), 1u); // second read came on-chip
    const auto *s = sys.ring().collector().find("interventions");
    // Peer L2_0 held the line Exclusive -> clean intervention.
    ASSERT_NE(s, nullptr);
}

TEST(CmpSystem, CleanEvictionWritesBackToL3AndLaterHits)
{
    auto cfg = microConfig();
    // Fill set 0 beyond capacity: lines A, B, C (2-way set).
    // A is evicted clean -> written to the L3; re-reading A hits L3.
    CmpSystem sys(cfg, bundleOf({{
                      ld(0x0),                    // A
                      ld(SetStride, 0, 2000),     // B
                      ld(2 * SetStride, 0, 2000), // C evicts A
                      ld(0x0, 0, 4000),           // A again: L3 hit
                  },
                  {}}));
    sys.run();
    // Refetching A evicts another clean line, so more than one clean
    // WB can occur; the key properties: A's WB happened, its refetch
    // hit the L3, and only the three distinct lines left memory.
    EXPECT_GE(sys.l3().cleanWbSeen(), 1u);
    EXPECT_EQ(sys.l3().loadHits(), 1u);
    EXPECT_EQ(sys.mem().reads(), 3u);
}

TEST(CmpSystem, DirtyEvictionWritesDirtyToL3)
{
    auto cfg = microConfig();
    CmpSystem sys(cfg, bundleOf({{
                      st(0x0),                    // A modified
                      ld(SetStride, 0, 2000),     // B
                      ld(2 * SetStride, 0, 2000), // C evicts dirty A
                  },
                  {}}));
    sys.run();
    // One dirty write back absorbed by the L3 (plus clean ones later).
    EXPECT_GE(sys.l3().params().wbQueueDepth, 1u);
    const auto *dirty = sys.l3().find("dirty_wb_seen");
    ASSERT_NE(dirty, nullptr);
    EXPECT_EQ(dynamic_cast<const stats::Scalar *>(dirty)->value(), 1u);
}

TEST(CmpSystem, RedundantCleanWbSquashed)
{
    auto cfg = microConfig();
    // A evicted clean (to L3), refetched (L3 keeps its copy), then
    // evicted clean again -> the second WB is squashed.
    CmpSystem sys(cfg, bundleOf({{
                      ld(0x0),                    // A
                      ld(SetStride, 0, 2000),     // B
                      ld(2 * SetStride, 0, 2000), // evicts A (WB #1)
                      ld(0x0, 0, 4000),           // A back (L3 hit)
                      ld(3 * SetStride, 0, 2000), // evicts... someone
                      ld(4 * SetStride, 0, 2000),
                      ld(5 * SetStride, 0, 2000),
                  },
                  {}}));
    sys.run();
    EXPECT_GE(sys.l3().cleanWbAlreadyValid(), 1u);
}

TEST(CmpSystem, StoreToSharedLineUpgrades)
{
    auto cfg = microConfig();
    // Both threads read X (shared), then thread 0 stores to it.
    CmpSystem sys(cfg, bundleOf({{ld(0x0), st(0x0, 0, 6000)},
                                 {ld(0x0, 1, 2000)}}));
    sys.run();
    const auto *up = sys.ring().collector().find("upgrades");
    ASSERT_NE(up, nullptr);
    EXPECT_EQ(dynamic_cast<const stats::Scalar *>(up)->value(), 1u);
    // Thread 1's copy is gone: its next read would miss (not checked
    // here; the invalidation is verified via the L2 state).
    EXPECT_EQ(sys.l2(1).tags().peek(0x0), nullptr);
    const TagEntry *e = sys.l2(0).tags().peek(0x0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, LineState::Modified);
}

TEST(CmpSystem, SilentStoreOnExclusive)
{
    auto cfg = microConfig();
    CmpSystem sys(cfg, bundleOf({{ld(0x0), st(0x0, 0, 2000)}, {}}));
    sys.run();
    const auto *up = sys.ring().collector().find("upgrades");
    EXPECT_EQ(dynamic_cast<const stats::Scalar *>(up)->value(), 0u);
    const TagEntry *e = sys.l2(0).tags().peek(0x0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, LineState::Modified);
}

TEST(CmpSystem, OutstandingLimitThrottles)
{
    // 8 independent misses; limit 1 serializes them, limit 6 overlaps.
    auto mk = [](unsigned outstanding) {
        auto cfg = microConfig();
        cfg.cpu.maxOutstanding = outstanding;
        std::vector<TraceRecord> refs;
        for (int i = 0; i < 8; ++i)
            refs.push_back(ld(static_cast<Addr>(i) * 128));
        CmpSystem sys(cfg, bundleOf({refs, {}}));
        return sys.run();
    };
    const Tick serial = mk(1);
    const Tick parallel = mk(6);
    EXPECT_GT(serial, 3 * parallel);
}

TEST(CmpSystem, DeterministicAcrossRuns)
{
    auto mk = [] {
        auto cfg = microConfig();
        std::vector<TraceRecord> t0;
        std::vector<TraceRecord> t1;
        for (int i = 0; i < 200; ++i) {
            t0.push_back(ld((static_cast<Addr>(i) % 24) * 128, 0,
                            i % 3));
            t1.push_back(i % 4 == 0
                             ? st((static_cast<Addr>(i) % 16) * 128, 1,
                                  i % 5)
                             : ld((static_cast<Addr>(i) % 16) * 128, 1,
                                  i % 5));
        }
        auto cfg2 = cfg;
        CmpSystem sys(cfg2, bundleOf({t0, t1}));
        return sys.run();
    };
    EXPECT_EQ(mk(), mk());
}

TEST(CmpSystem, WbhtAbortsRepeatedCleanWriteBack)
{
    auto cfg = microConfig();
    cfg.policy = PolicyConfig::make(WbPolicy::Wbht);
    cfg.policy.useRetrySwitch = false; // always on for this test
    cfg.policy.wbht.entries = 256;
    cfg.policy.wbht.assoc = 16;

    // Cycle A out and in three times. WB #1 accepted, WB #2 squashed
    // (allocating the WBHT entry), WB #3 aborted by the WBHT.
    std::vector<TraceRecord> refs;
    refs.push_back(ld(0x0)); // A
    for (int round = 0; round < 3; ++round) {
        refs.push_back(ld(SetStride, 0, 3000));
        refs.push_back(ld(2 * SetStride, 0, 3000)); // evict A
        refs.push_back(ld(0x0, 0, 6000));           // refetch A
    }
    CmpSystem sys(cfg, bundleOf({refs, {}}));
    sys.run();
    ASSERT_NE(sys.l2(0).wbht(), nullptr);
    EXPECT_GE(sys.l2(0).wbAbortedByWbht(), 1u);
}

TEST(CmpSystem, RetrySwitchKeepsWbhtIdleWhenQuiet)
{
    auto cfg = microConfig();
    cfg.policy = PolicyConfig::make(WbPolicy::Wbht);
    cfg.policy.useRetrySwitch = true; // default thresholds: never trips
    std::vector<TraceRecord> refs;
    refs.push_back(ld(0x0));
    for (int round = 0; round < 3; ++round) {
        refs.push_back(ld(SetStride, 0, 3000));
        refs.push_back(ld(2 * SetStride, 0, 3000));
        refs.push_back(ld(0x0, 0, 6000));
    }
    CmpSystem sys(cfg, bundleOf({refs, {}}));
    sys.run();
    // Quiet system: no retries, switch stays off, nothing aborted.
    EXPECT_EQ(sys.l2(0).wbAbortedByWbht(), 0u);
}

namespace
{

/**
 * Build a stream that gets a *dirty* line A snarfed by the peer L2.
 * Clean lines refetched from the L3 are simply squashed on their next
 * write back (the L3 retains them), so the snarf path needs a line
 * the L3 does not hold: stores (ReadExcl) invalidate the L3 copy.
 *
 *   st A; evict (WbDirty: snarf table learns A)
 *   st A; (ReadExcl: use bit set, L3 copy invalidated) evict
 *         -> WbDirty flagged snarfable -> peer absorbs A as Modified
 */
std::vector<TraceRecord>
dirtySnarfScenario()
{
    std::vector<TraceRecord> refs;
    refs.push_back(st(0x0)); // A modified
    refs.push_back(ld(SetStride, 0, 3000));
    refs.push_back(ld(2 * SetStride, 0, 3000)); // evict A (learn)
    refs.push_back(st(0x0, 0, 6000));           // A again, use bit
    refs.push_back(ld(SetStride, 0, 3000));
    refs.push_back(ld(2 * SetStride, 0, 3000)); // evict A (flagged)
    return refs;
}

} // namespace

TEST(CmpSystem, SnarfMovesWriteBackToPeer)
{
    auto cfg = microConfig();
    cfg.policy = PolicyConfig::make(WbPolicy::Snarf);
    cfg.policy.snarf.entries = 256;
    cfg.policy.snarf.assoc = 16;

    CmpSystem sys(cfg, bundleOf({dirtySnarfScenario(), {}}));
    sys.run();
    EXPECT_GE(sys.l2(1).snarfedReceived(), 1u);
    // The snarfed dirty copy lives in the peer L2 as Modified.
    const TagEntry *e = sys.l2(1).tags().peek(0x0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, LineState::Modified);
    EXPECT_TRUE(e->snarfed);
}

TEST(CmpSystem, SnarfedLineServicesLaterMissAsIntervention)
{
    auto cfg = microConfig();
    cfg.policy = PolicyConfig::make(WbPolicy::Snarf);
    cfg.policy.snarf.entries = 256;
    cfg.policy.snarf.assoc = 16;

    auto refs = dirtySnarfScenario();
    refs.push_back(ld(0x0, 0, 8000)); // miss: snarfed copy intervenes
    CmpSystem sys(cfg, bundleOf({refs, {}}));
    sys.run();
    EXPECT_GE(sys.l2(1).snarfedUsedForIntervention(), 1u);
}

TEST(CmpSystem, CleanWbFromL3ResidentLineIsSquashedNotSnarfed)
{
    // The counterpart of the dirty scenario: a *clean* line the L3
    // retains never needs snarfing -- its repeat write back is
    // squashed outright.
    auto cfg = microConfig();
    cfg.policy = PolicyConfig::make(WbPolicy::Snarf);
    std::vector<TraceRecord> refs;
    refs.push_back(ld(0x0));
    for (int round = 0; round < 2; ++round) {
        refs.push_back(ld(SetStride, 0, 3000));
        refs.push_back(ld(2 * SetStride, 0, 3000)); // evict A
        refs.push_back(ld(0x0, 0, 6000));           // refetch from L3
    }
    CmpSystem sys(cfg, bundleOf({refs, {}}));
    sys.run();
    EXPECT_EQ(sys.l2(0).snarfedReceived(), 0u);
    EXPECT_EQ(sys.l2(1).snarfedReceived(), 0u);
    EXPECT_GE(sys.l3().cleanWbAlreadyValid(), 1u);
}

TEST(CmpSystem, GlobalWbhtAllocationFillsAllTables)
{
    auto cfg = microConfig();
    cfg.policy = PolicyConfig::make(WbPolicy::WbhtGlobal);
    cfg.policy.useRetrySwitch = false;
    cfg.policy.wbht.entries = 256;
    cfg.policy.wbht.assoc = 16;

    std::vector<TraceRecord> refs;
    refs.push_back(ld(0x0));
    for (int round = 0; round < 2; ++round) {
        refs.push_back(ld(SetStride, 0, 3000));
        refs.push_back(ld(2 * SetStride, 0, 3000));
        refs.push_back(ld(0x0, 0, 6000));
    }
    CmpSystem sys(cfg, bundleOf({refs, {}}));
    sys.run();
    // The squash of WB #2 allocates in *both* L2s' tables.
    ASSERT_NE(sys.l2(1).wbht(), nullptr);
    EXPECT_NE(sys.l2(1).wbht()->table().peek(0x0), nullptr);
}

TEST(CmpSystem, BaselineHasNoTables)
{
    auto cfg = microConfig();
    CmpSystem sys(cfg, bundleOf({{ld(0x0)}, {}}));
    sys.run();
    EXPECT_EQ(sys.l2(0).wbht(), nullptr);
    EXPECT_EQ(sys.l2(0).snarfTable(), nullptr);
}

TEST(CmpSystem, ReuseTrackerCountsReuse)
{
    auto cfg = microConfig();
    cfg.enableWbReuseTracker = true;
    CmpSystem sys(cfg, bundleOf({{
                      ld(0x0),
                      ld(SetStride, 0, 2000),
                      ld(2 * SetStride, 0, 2000), // evict A (WB)
                      ld(0x0, 0, 4000),           // reuse!
                  },
                  {}}));
    sys.run();
    ASSERT_NE(sys.reuseTracker(), nullptr);
    // A's write back is reused (refetch); the eviction caused by the
    // refetch adds a second, unreused write back.
    EXPECT_GE(sys.reuseTracker()->totalWb(), 1u);
    EXPECT_GE(sys.reuseTracker()->reusedTotal(), 1u);
}

TEST(CmpSystem, FinishedAfterRun)
{
    auto cfg = microConfig();
    CmpSystem sys(cfg, bundleOf({{ld(0x0)}, {ld(0x80, 1)}}));
    EXPECT_FALSE(sys.finished());
    sys.run();
    EXPECT_TRUE(sys.finished());
}

TEST(CmpSystemDeath, WrongThreadCountIsFatal)
{
    auto cfg = microConfig();
    EXPECT_DEATH(CmpSystem(cfg, bundleOf({{ld(0x0)}})), "threads");
}

TEST(CmpSystem, StatsDumpIsComprehensive)
{
    auto cfg = microConfig();
    CmpSystem sys(cfg, bundleOf({{ld(0x0)}, {}}));
    sys.run();
    std::ostringstream os;
    stats::writeText(sys, os);
    for (const char *needle :
         {"system.l2_0.accesses", "system.l3.load_lookups",
          "system.mem.reads", "system.ring.requests",
          "system.ring.snoop_collector.combines",
          "system.cpu_0.issued"}) {
        EXPECT_NE(os.str().find(needle), std::string::npos) << needle;
    }
}
