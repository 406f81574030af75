/**
 * @file
 * Functional warmup as build then load: a warm image loaded into a
 * machine must leave it exactly as one warmup pass straight into that
 * machine's caches and tables does -- tags, LRU order, table entries,
 * stats and the timed run that follows -- for every policy, and one
 * image must serve any number of machines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "sim/cmp_system.hh"
#include "sim/sweep.hh"
#include "trace/workload.hh"

using namespace cmpcache;

namespace
{

/** Four small L2s of two threads each: plenty of evictions, L3 hits
 * on clean victims and cross-L2 sharing within a short trace. */
SystemConfig
config(WbPolicy policy)
{
    SystemConfig cfg;
    cfg.topology = TopologyParams::flat(4, 2);
    cfg.l2.sizeBytes = 16 * 1024;
    cfg.l2.assoc = 4;
    cfg.l3.sizeBytes = 64 * 1024;
    cfg.l3.assoc = 8;
    cfg.policy = PolicyConfig::make(policy);
    cfg.policy.wbht.entries = 512;
    cfg.policy.snarf.entries = 512;
    cfg.policy.retry.windowCycles = 20000;
    cfg.policy.retry.threshold = 5;
    return cfg;
}

WorkloadParams
workload()
{
    WorkloadParams p;
    p.numThreads = 8;
    p.recordsPerThread = 3000;
    p.seed = 5;
    p.privateLines = 160;
    p.sharedLines = 96;
    p.sharedFrac = 0.2;
    p.kernelLines = 48;
    p.streamLines = 4096;
    p.storeFrac = 0.3;
    p.phaseLength = 500;
    return p;
}

/**
 * The warmup pass run straight into @p sys, feeding every peer's
 * tables directly -- the semantics a warm image must reproduce.
 * Returns the lines it left valid in two or more L2s.
 */
std::vector<Addr>
referenceWarmup(CmpSystem &sys, TraceBundle traces)
{
    const CmpTopology &topo = sys.topology();
    const bool global = sys.config().policy.globalWbhtAllocation();
    TagArray &l3tags = sys.l3().tags();
    bool any = true;
    TraceRecord r;
    while (any) {
        any = false;
        for (unsigned t = 0; t < topo.numThreads(); ++t) {
            if (!traces.perThread[t]->next(r))
                continue;
            any = true;
            L2Cache &l2 = sys.l2(topo.l2OfThread(t));
            TagArray &tags = l2.tags();
            const Addr line = tags.lineAlign(r.addr);
            const bool store = r.op == MemOp::Store;
            if (TagEntry *e = tags.lookup(line)) {
                if (store)
                    e->state = LineState::Modified;
                continue;
            }
            for (unsigned i = 0; i < sys.numL2s(); ++i) {
                if (auto *st = sys.l2(i).snarfTable())
                    st->recordMiss(line);
            }
            TagEntry *victim = tags.findVictim(line);
            if (victim->valid()) {
                const Addr va = tags.lineOf(victim);
                const bool vdirty = isDirty(victim->state);
                bool l3_had_line = false;
                if (TagEntry *l3e = l3tags.lookup(va)) {
                    l3_had_line = true;
                    if (vdirty)
                        l3e->state = LineState::Modified;
                } else {
                    l3tags.insert(l3tags.findVictim(va), va,
                                  vdirty ? LineState::Modified
                                         : LineState::Shared);
                }
                for (unsigned i = 0; i < sys.numL2s(); ++i) {
                    if (auto *st = sys.l2(i).snarfTable())
                        st->recordWriteBack(va);
                }
                if (!vdirty && l3_had_line) {
                    for (unsigned i = 0; i < sys.numL2s(); ++i) {
                        if (!global && &sys.l2(i) != &l2)
                            continue;
                        if (auto *w = sys.l2(i).wbht())
                            w->recordL3Valid(va);
                    }
                }
            }
            tags.insert(victim, line,
                        store ? LineState::Modified
                              : LineState::Exclusive);
            if (TagEntry *l3e = l3tags.lookup(line)) {
                if (store)
                    l3tags.invalidate(l3e);
            }
        }
    }
    std::map<Addr, unsigned> copies;
    for (unsigned i = 0; i < sys.numL2s(); ++i) {
        sys.l2(i).tags().forEach([&](Addr line, const TagEntry &e) {
            if (e.valid())
                ++copies[line];
        });
    }
    std::vector<Addr> approx;
    for (const auto &[line, n] : copies) {
        if (n >= 2)
            approx.push_back(line);
    }
    return approx;
}

/** Tags, LRU state, table entries and every stat of @p a and @p b
 * agree. */
void
expectSameMachine(CmpSystem &a, CmpSystem &b)
{
    ASSERT_EQ(a.numL2s(), b.numL2s());
    for (unsigned i = 0; i < a.numL2s(); ++i) {
        EXPECT_TRUE(a.l2(i).tags() == b.l2(i).tags()) << "l2_" << i;
        ASSERT_EQ(a.l2(i).snarfTable() != nullptr,
                  b.l2(i).snarfTable() != nullptr);
        if (a.l2(i).snarfTable()) {
            EXPECT_TRUE(a.l2(i).snarfTable()->table()
                        == b.l2(i).snarfTable()->table())
                << "l2_" << i;
        }
        ASSERT_EQ(a.l2(i).wbht() != nullptr, b.l2(i).wbht() != nullptr);
        if (a.l2(i).wbht()) {
            EXPECT_TRUE(a.l2(i).wbht()->table() == b.l2(i).wbht()->table())
                << "l2_" << i;
        }
    }
    EXPECT_TRUE(a.l3().tags() == b.l3().tags());
    EXPECT_EQ(dumpStats(a, StatsFormat::Json),
              dumpStats(b, StatsFormat::Json));
}

class WarmImagePolicy : public ::testing::TestWithParam<WbPolicy>
{
};

} // namespace

TEST_P(WarmImagePolicy, LoadEqualsAPassStraightIntoTheMachine)
{
    const SystemConfig cfg = config(GetParam());
    const SyntheticWorkload wl(workload());

    CmpSystem direct(cfg, wl.makeBundle());
    const std::vector<Addr> approx =
        referenceWarmup(direct, wl.makeBundle());
    CmpSystem loaded(cfg, wl.makeBundle());
    loaded.functionalWarmup(wl.makeBundle());
    expectSameMachine(direct, loaded);

    // The same lines are exempt from the invariant checker.
    ASSERT_FALSE(approx.empty()) << "the trace shares no lines";
    for (unsigned i = 0; i < loaded.numL2s(); ++i) {
        loaded.l2(i).tags().forEach([&](Addr line, const TagEntry &e) {
            if (e.valid()) {
                EXPECT_EQ(loaded.isWarmupApproximate(line),
                          std::binary_search(approx.begin(),
                                             approx.end(), line))
                    << line;
            }
        });
    }

    // And the timed runs from both starting points are one run.
    EXPECT_EQ(direct.run(), loaded.run());
    expectSameMachine(direct, loaded);
}

TEST_P(WarmImagePolicy, PeerTablesEndIdentical)
{
    // loadWarmImage replays the snarf events into one table and
    // copies it to the peers (the WBHTs too under global allocation).
    // That is only sound if feeding each peer directly leaves them
    // all equal.
    const SyntheticWorkload wl(workload());
    CmpSystem sys(config(GetParam()), wl.makeBundle());
    referenceWarmup(sys, wl.makeBundle());
    const bool global = sys.config().policy.globalWbhtAllocation();
    for (unsigned i = 1; i < sys.numL2s(); ++i) {
        if (sys.l2(0).snarfTable()) {
            EXPECT_TRUE(sys.l2(i).snarfTable()->table()
                        == sys.l2(0).snarfTable()->table())
                << "l2_" << i;
        }
        if (global) {
            EXPECT_TRUE(sys.l2(i).wbht()->table()
                        == sys.l2(0).wbht()->table())
                << "l2_" << i;
        }
    }
    if (sys.l2(0).snarfTable()) {
        EXPECT_GT(sys.l2(0).snarfTable()->table().countValid(), 0u);
    }
    if (sys.l2(0).wbht()) {
        EXPECT_GT(sys.l2(0).wbht()->table().countValid(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, WarmImagePolicy,
    ::testing::Values(WbPolicy::Baseline, WbPolicy::Wbht,
                      WbPolicy::WbhtGlobal, WbPolicy::Snarf,
                      WbPolicy::Combined),
    [](const auto &info) {
        std::string name = toString(info.param);
        std::erase(name, '-');
        return name;
    });

TEST(WarmImage, OneImageServesMachinesOfAnyPolicy)
{
    const SyntheticWorkload wl(workload());
    const WarmImage image =
        buildWarmImage(config(WbPolicy::Baseline), wl.makeBundle());
    EXPECT_FALSE(image.snarfLines.empty());
    EXPECT_EQ(image.snarfWriteBack.size(), image.snarfLines.size());
    EXPECT_FALSE(image.wbhtLines.empty());
    EXPECT_EQ(image.wbhtL2s.size(), image.wbhtLines.size());

    SystemConfig combined = config(WbPolicy::Combined);
    combined.policy.wbht.entries /= 2;
    combined.policy.snarf.entries /= 2;
    for (const SystemConfig &cfg :
         {config(WbPolicy::WbhtGlobal), config(WbPolicy::Snarf),
          combined}) {
        CmpSystem from_image(cfg, wl.makeBundle());
        from_image.loadWarmImage(image);
        CmpSystem warmed(cfg, wl.makeBundle());
        warmed.functionalWarmup(wl.makeBundle());
        expectSameMachine(from_image, warmed);
        EXPECT_EQ(from_image.run(), warmed.run());
    }

    // Loading copies: the image is untouched by the machines it warmed.
    const WarmImage fresh =
        buildWarmImage(config(WbPolicy::Baseline), wl.makeBundle());
    ASSERT_EQ(image.l2Tags.size(), fresh.l2Tags.size());
    for (std::size_t i = 0; i < image.l2Tags.size(); ++i)
        EXPECT_TRUE(image.l2Tags[i] == fresh.l2Tags[i]);
    EXPECT_TRUE(image.l3Tags == fresh.l3Tags);
    EXPECT_EQ(image.snarfLines, fresh.snarfLines);
    EXPECT_EQ(image.snarfWriteBack, fresh.snarfWriteBack);
    EXPECT_EQ(image.wbhtLines, fresh.wbhtLines);
    EXPECT_EQ(image.wbhtL2s, fresh.wbhtL2s);
    EXPECT_EQ(image.approximateLines, fresh.approximateLines);
}
