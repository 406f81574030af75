/** @file Unit tests for the Snoop Collector's combining rules. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "coherence/snoop_collector.hh"
#include "stats/stats.hh"

using namespace cmpcache;

namespace
{

class SnoopCollectorTest : public ::testing::Test
{
  protected:
    SnoopCollectorTest()
        : root_("sys"), topo_(CmpTopology::flat(4, 4)), sc_(&root_, topo_)
    {
    }

    static BusRequest
    req(BusCmd cmd, AgentId requester = 0, bool snarf = false)
    {
        BusRequest r;
        r.lineAddr = 0x1000;
        r.cmd = cmd;
        r.requester = requester;
        r.snarfHint = snarf;
        r.txnId = 1;
        return r;
    }

    /** One default response per agent, indexed by AgentId, as the
     * ring hands them over. */
    std::vector<SnoopResponse>
    responses() const
    {
        return std::vector<SnoopResponse>(topo_.numAgents());
    }

    stats::Group root_;
    CmpTopology topo_;
    SnoopCollector sc_;
};

} // namespace

TEST_F(SnoopCollectorTest, ReadNoCopiesGoesToMemory)
{
    auto res = sc_.combine(req(BusCmd::Read), responses());
    EXPECT_EQ(res.resp, CombinedResp::MemData);
    EXPECT_FALSE(res.otherSharers);
}

TEST_F(SnoopCollectorTest, ReadPrefersL2InterventionOverL3)
{
    auto rs = responses();
    rs[1].hasLine = true;
    rs[1].canSupply = true; // SL copy
    rs[topo_.l3Agent()].l3Hit = true;
    auto res = sc_.combine(req(BusCmd::Read), rs);
    EXPECT_EQ(res.resp, CombinedResp::L2Data);
    EXPECT_EQ(res.source, 1);
    EXPECT_FALSE(res.dirtySource);
    EXPECT_TRUE(res.l3HasLine);
    EXPECT_TRUE(res.otherSharers);
}

TEST_F(SnoopCollectorTest, ReadFallsBackToL3)
{
    auto rs = responses();
    rs[1].hasLine = true; // plain Shared: cannot supply
    rs[topo_.l3Agent()].l3Hit = true;
    auto res = sc_.combine(req(BusCmd::Read), rs);
    EXPECT_EQ(res.resp, CombinedResp::L3Data);
}

TEST_F(SnoopCollectorTest, DirtyOwnerBeatsCleanIntervener)
{
    auto rs = responses();
    rs[1].hasLine = true;
    rs[1].canSupply = true;
    rs[2].hasLine = true;
    rs[2].hasDirty = true;
    rs[2].canSupply = true;
    auto res = sc_.combine(req(BusCmd::Read), rs);
    EXPECT_EQ(res.resp, CombinedResp::L2Data);
    EXPECT_EQ(res.source, 2);
    EXPECT_TRUE(res.dirtySource);
}

TEST_F(SnoopCollectorTest, RetryBeatsEverything)
{
    auto rs = responses();
    rs[2].hasLine = true;
    rs[2].hasDirty = true;
    rs[2].canSupply = true;
    rs[3].retry = true;
    auto res = sc_.combine(req(BusCmd::Read), rs);
    EXPECT_EQ(res.resp, CombinedResp::Retry);
    EXPECT_EQ(sc_.totalRetries(), 1u);
}

TEST_F(SnoopCollectorTest, UpgradeGranted)
{
    auto rs = responses();
    rs[1].hasLine = true;
    auto res = sc_.combine(req(BusCmd::Upgrade), rs);
    EXPECT_EQ(res.resp, CombinedResp::Upgraded);
}

TEST_F(SnoopCollectorTest, CleanWbSquashedWhenL3HasIt)
{
    auto rs = responses();
    rs[topo_.l3Agent()].l3Hit = true;
    rs[topo_.l3Agent()].wbAccept = true; // irrelevant once squashed
    auto res = sc_.combine(req(BusCmd::WbClean), rs);
    EXPECT_EQ(res.resp, CombinedResp::WbSquashed);
    EXPECT_TRUE(res.l3HasLine);
}

TEST_F(SnoopCollectorTest, CleanWbSquashedWhenPeerHasCleanCopy)
{
    auto rs = responses();
    rs[1].hasLine = true; // clean copy announced on a snarf-flagged WB
    rs[topo_.l3Agent()].wbAccept = true;
    auto res = sc_.combine(req(BusCmd::WbClean, 0, true), rs);
    EXPECT_EQ(res.resp, CombinedResp::WbSquashed);
    EXPECT_FALSE(res.l3HasLine);
}

TEST_F(SnoopCollectorTest, CleanWbAcceptedByL3)
{
    auto rs = responses();
    rs[topo_.l3Agent()].wbAccept = true;
    auto res = sc_.combine(req(BusCmd::WbClean), rs);
    EXPECT_EQ(res.resp, CombinedResp::WbAcceptL3);
}

TEST_F(SnoopCollectorTest, WbRetriedWhenNoAcceptor)
{
    auto rs = responses();
    rs[topo_.l3Agent()].retry = true;
    auto res = sc_.combine(req(BusCmd::WbDirty), rs);
    EXPECT_EQ(res.resp, CombinedResp::Retry);
}

TEST_F(SnoopCollectorTest, SnarfBeatsL3Accept)
{
    auto rs = responses();
    rs[1].snarfAccept = true;
    rs[topo_.l3Agent()].wbAccept = true;
    auto res = sc_.combine(req(BusCmd::WbClean, 0, true), rs);
    EXPECT_EQ(res.resp, CombinedResp::WbSnarfed);
    EXPECT_EQ(res.source, 1);
}

TEST_F(SnoopCollectorTest, SnarfRescuesWbFromRetry)
{
    // L3 queue full (retry) but a peer can absorb: no retry happens.
    auto rs = responses();
    rs[2].snarfAccept = true;
    rs[topo_.l3Agent()].retry = true;
    auto res = sc_.combine(req(BusCmd::WbDirty, 0, true), rs);
    EXPECT_EQ(res.resp, CombinedResp::WbSnarfed);
    EXPECT_EQ(sc_.totalRetries(), 0u);
}

TEST_F(SnoopCollectorTest, SnarfWinnerRoundRobinIsFair)
{
    auto mk = [&](std::initializer_list<AgentId> accepting) {
        auto rs = responses();
        for (AgentId acc : accepting)
            rs[acc].snarfAccept = true;
        return rs;
    };
    // All three accept repeatedly: winners must rotate.
    std::vector<AgentId> winners;
    for (int i = 0; i < 6; ++i) {
        auto res =
            sc_.combine(req(BusCmd::WbClean, 0, true), mk({1, 2, 3}));
        ASSERT_EQ(res.resp, CombinedResp::WbSnarfed);
        winners.push_back(res.source);
    }
    // Each agent wins twice in six rounds.
    for (AgentId id : {AgentId(1), AgentId(2), AgentId(3)}) {
        EXPECT_EQ(std::count(winners.begin(), winners.end(), id), 2)
            << "agent " << unsigned{id};
    }
    // No two consecutive wins by the same agent when all compete.
    for (std::size_t i = 1; i < winners.size(); ++i)
        EXPECT_NE(winners[i], winners[i - 1]);
}

TEST_F(SnoopCollectorTest, RoundRobinSkipsNonAccepting)
{
    for (int i = 0; i < 4; ++i) {
        auto rs = responses();
        rs[3].snarfAccept = true;
        auto res = sc_.combine(req(BusCmd::WbClean, 0, true), rs);
        ASSERT_EQ(res.resp, CombinedResp::WbSnarfed);
        EXPECT_EQ(res.source, 3);
    }
}

TEST_F(SnoopCollectorTest, OtherSharersExcludesL3)
{
    auto rs = responses();
    rs[topo_.l3Agent()].l3Hit = true;
    auto res = sc_.combine(req(BusCmd::Read), rs);
    EXPECT_TRUE(res.l3HasLine);
    EXPECT_FALSE(res.otherSharers);
}

// The requester's slot is a default response, which no combine rule
// reacts to: whichever L2 requests (and so leaves its slot default),
// the same peer responses combine to the same result.
TEST_F(SnoopCollectorTest, RequesterSlotChangesNoCombinedResponse)
{
    // A snarf-flagged write back that L2 2 and the L3 offer to take.
    auto wb = responses();
    wb[2].snarfAccept = true;
    wb[topo_.l3Agent()].wbAccept = true;
    // A read the L3 hits, with a plain Shared copy in L2 2.
    auto rd = responses();
    rd[2].hasLine = true;
    rd[topo_.l3Agent()].l3Hit = true;

    for (AgentId requester : {AgentId(0), AgentId(1), AgentId(3)}) {
        stats::Group root("sys");
        SnoopCollector sc(&root, topo_);
        const auto w =
            sc.combine(req(BusCmd::WbDirty, requester, true), wb);
        EXPECT_EQ(w.resp, CombinedResp::WbSnarfed);
        EXPECT_EQ(w.source, 2);
        EXPECT_FALSE(w.l3HasLine);
        EXPECT_FALSE(w.otherSharers);

        const auto r = sc.combine(req(BusCmd::Read, requester), rd);
        EXPECT_EQ(r.resp, CombinedResp::L3Data);
        EXPECT_EQ(r.source, InvalidAgent);
        EXPECT_TRUE(r.l3HasLine);
        EXPECT_TRUE(r.otherSharers);
        EXPECT_FALSE(r.dirtySource);
    }
}

TEST(SnoopCollectorRoundRobin, FairAtSixteenL2s)
{
    const CmpTopology topo = CmpTopology::build([] {
        TopologyParams p;
        p.cores = 64;
        p.smt = 1;
        p.l2s = 16;
        p.l3Slices = 16;
        return p;
    }()).value();
    stats::Group root("sys");
    SnoopCollector sc(&root, topo);
    BusRequest wb;
    wb.cmd = BusCmd::WbClean;
    wb.requester = topo.l2Agent(0);
    wb.snarfHint = true;

    // Every peer of the requester offers, round after round: each wins
    // exactly once per 15 rounds, in id order after the last winner.
    std::vector<SnoopResponse> rs(topo.numAgents());
    for (unsigned i = 1; i < topo.numL2s(); ++i)
        rs[topo.l2Agent(i)].snarfAccept = true;
    std::vector<unsigned> wins(topo.numL2s(), 0);
    AgentId last = wb.requester;
    for (unsigned round = 0; round < 3 * (topo.numL2s() - 1); ++round) {
        const auto res = sc.combine(wb, rs);
        ASSERT_EQ(res.resp, CombinedResp::WbSnarfed);
        const AgentId expect = last + 1u == topo.numL2s()
                                   ? topo.l2Agent(1)
                                   : static_cast<AgentId>(last + 1u);
        EXPECT_EQ(res.source, expect) << "round " << round;
        ++wins[res.source];
        last = res.source;
    }
    EXPECT_EQ(wins[0], 0u);
    for (unsigned i = 1; i < topo.numL2s(); ++i)
        EXPECT_EQ(wins[i], 3u) << "L2 " << i;

    // With only two far-apart offers, the rotation alternates between
    // them instead of favouring the lower id.
    std::vector<SnoopResponse> two(topo.numAgents());
    two[topo.l2Agent(3)].snarfAccept = true;
    two[topo.l2Agent(14)].snarfAccept = true;
    AgentId prev = InvalidAgent;
    for (int round = 0; round < 8; ++round) {
        const auto res = sc.combine(wb, two);
        ASSERT_EQ(res.resp, CombinedResp::WbSnarfed);
        EXPECT_TRUE(res.source == 3 || res.source == 14);
        EXPECT_NE(res.source, prev) << "round " << round;
        prev = res.source;
    }
}
