/** @file Tests for the intrachip ring using scripted mock agents. */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "ring/ring.hh"
#include "sim/event_queue.hh"

using namespace cmpcache;

namespace
{

/** Scriptable bus agent that records what it observes. */
class MockAgent : public BusAgent
{
  public:
    explicit MockAgent(AgentId id) : id_(id) {}

    AgentId agentId() const override { return id_; }

    SnoopResponse
    snoop(const BusRequest &req) override
    {
        snooped.push_back(req);
        return scripted;
    }

    void
    observeCombined(const BusRequest &req,
                    const CombinedResult &res) override
    {
        observed.emplace_back(req, res);
    }

    Tick
    scheduleSupply(const BusRequest &, Tick combine_time) override
    {
        ++supplied;
        return combine_time + supplyLatency;
    }

    void
    receiveData(const BusRequest &req, const CombinedResult &) override
    {
        dataArrivals.push_back(req.lineAddr);
    }

    void
    receiveWriteBack(const BusRequest &req) override
    {
        wbArrivals.push_back(req.lineAddr);
    }

    AgentId id_;
    SnoopResponse scripted;
    Tick supplyLatency = 0;
    int supplied = 0;
    std::vector<BusRequest> snooped;
    std::vector<std::pair<BusRequest, CombinedResult>> observed;
    std::vector<Addr> dataArrivals;
    std::vector<Addr> wbArrivals;
};

class RingTest : public ::testing::Test
{
  protected:
    RingTest() : root_("sys"), topo_(CmpTopology::flat(4, 4))
    {
        ring_ = std::make_unique<Ring>(&root_, eq_, params_, topo_);
        for (unsigned i = 0; i < topo_.numL2s(); ++i) {
            l2s_.push_back(std::make_unique<MockAgent>(topo_.l2Agent(i)));
            ring_->attach(l2s_.back().get());
        }
        l3_ = std::make_unique<MockAgent>(topo_.l3Agent());
        mem_ = std::make_unique<MockAgent>(topo_.memAgent());
        ring_->attach(l3_.get());
        ring_->attach(mem_.get());
    }

    BusRequest
    read(Addr a, AgentId requester = 0)
    {
        BusRequest r;
        r.lineAddr = a;
        r.cmd = BusCmd::Read;
        r.requester = requester;
        return r;
    }

    stats::Group root_;
    EventQueue eq_;
    RingParams params_;
    CmpTopology topo_;
    std::unique_ptr<Ring> ring_;
    std::vector<std::unique_ptr<MockAgent>> l2s_;
    std::unique_ptr<MockAgent> l3_;
    std::unique_ptr<MockAgent> mem_;
};

} // namespace

TEST_F(RingTest, RequesterDoesNotSnoopItself)
{
    ring_->issue(read(0x1000, 2));
    eq_.run();
    EXPECT_TRUE(l2s_[2]->snooped.empty());
    for (unsigned i : {0u, 1u, 3u})
        EXPECT_EQ(l2s_[i]->snooped.size(), 1u);
    EXPECT_EQ(l3_->snooped.size(), 1u);
    EXPECT_EQ(mem_->snooped.size(), 1u);
}

TEST_F(RingTest, EveryAgentSeesCombinedResponse)
{
    ring_->issue(read(0x1000));
    eq_.run();
    for (const auto &a : l2s_)
        EXPECT_EQ(a->observed.size(), 1u);
    EXPECT_EQ(l3_->observed.size(), 1u);
    EXPECT_EQ(mem_->observed.size(), 1u);
}

TEST_F(RingTest, MemorySuppliesWhenNothingElseDoes)
{
    ring_->issue(read(0x1000, 1));
    eq_.run();
    EXPECT_EQ(mem_->supplied, 1);
    ASSERT_EQ(l2s_[1]->dataArrivals.size(), 1u);
    EXPECT_EQ(l2s_[1]->dataArrivals[0], 0x1000u);
}

TEST_F(RingTest, L3SuppliesOnDirectoryHit)
{
    l3_->scripted.l3Hit = true;
    ring_->issue(read(0x1000, 0));
    eq_.run();
    EXPECT_EQ(l3_->supplied, 1);
    EXPECT_EQ(mem_->supplied, 0);
    EXPECT_EQ(l2s_[0]->dataArrivals.size(), 1u);
}

TEST_F(RingTest, PeerInterventionWinsOverL3)
{
    l3_->scripted.l3Hit = true;
    l2s_[3]->scripted.hasLine = true;
    l2s_[3]->scripted.canSupply = true;
    ring_->issue(read(0x1000, 0));
    eq_.run();
    EXPECT_EQ(l2s_[3]->supplied, 1);
    EXPECT_EQ(l3_->supplied, 0);
    ASSERT_EQ(l2s_[0]->observed.size(), 1u);
    EXPECT_EQ(l2s_[0]->observed[0].second.resp, CombinedResp::L2Data);
    EXPECT_EQ(l2s_[0]->observed[0].second.source, 3);
}

TEST_F(RingTest, WriteBackDataRoutedToL3)
{
    l3_->scripted.wbAccept = true;
    BusRequest wb;
    wb.lineAddr = 0x2000;
    wb.cmd = BusCmd::WbDirty;
    wb.requester = 1;
    ring_->issue(wb);
    eq_.run();
    ASSERT_EQ(l3_->wbArrivals.size(), 1u);
    EXPECT_EQ(l3_->wbArrivals[0], 0x2000u);
}

TEST_F(RingTest, SnarfedWriteBackRoutedToWinner)
{
    l2s_[2]->scripted.snarfAccept = true;
    BusRequest wb;
    wb.lineAddr = 0x2000;
    wb.cmd = BusCmd::WbClean;
    wb.requester = 0;
    wb.snarfHint = true;
    ring_->issue(wb);
    eq_.run();
    ASSERT_EQ(l2s_[2]->wbArrivals.size(), 1u);
    EXPECT_TRUE(l3_->wbArrivals.empty());
}

TEST_F(RingTest, SquashedWriteBackMovesNoData)
{
    l3_->scripted.l3Hit = true;
    BusRequest wb;
    wb.lineAddr = 0x2000;
    wb.cmd = BusCmd::WbClean;
    wb.requester = 0;
    ring_->issue(wb);
    eq_.run();
    EXPECT_TRUE(l3_->wbArrivals.empty());
    ASSERT_EQ(l2s_[0]->observed.size(), 1u);
    EXPECT_EQ(l2s_[0]->observed[0].second.resp,
              CombinedResp::WbSquashed);
}

TEST_F(RingTest, CombinedResponseAfterSnoopLatency)
{
    ring_->issue(read(0x1000));
    eq_.run();
    // requesterOverhead + snoopLatency.
    const Tick expect = params_.requesterOverhead + params_.snoopLatency;
    ASSERT_EQ(l2s_[1]->snooped.size(), 1u);
    EXPECT_GE(eq_.curTick(), expect);
}

TEST_F(RingTest, AddressSlotSerializesLaunches)
{
    // Two requests issued the same tick: combined responses are
    // separated by at least addrSlotCycles.
    std::vector<Tick> combine_ticks;
    ring_->setObserver(
        [&](const BusRequest &, const CombinedResult &) {
            combine_ticks.push_back(eq_.curTick());
        });
    ring_->issue(read(0x1000, 0));
    ring_->issue(read(0x2000, 1));
    eq_.run();
    ASSERT_EQ(combine_ticks.size(), 2u);
    EXPECT_GE(combine_ticks[1] - combine_ticks[0],
              static_cast<Tick>(params_.addrSlotCycles));
}

TEST_F(RingTest, TransactionIdsIncrease)
{
    const auto a = ring_->issue(read(0x1000));
    const auto b = ring_->issue(read(0x2000));
    EXPECT_LT(a, b);
    eq_.run();
}

TEST_F(RingTest, DataTransferLatencyGrowsWithDistance)
{
    // Contention-free: one hop vs three hops.
    const Tick one = ring_->reserveDataTransfer(0, 1, 1000);
    const Tick three = ring_->reserveDataTransfer(0, 3, 2000);
    EXPECT_GT(three - 2000, one - 1000);
}

TEST_F(RingTest, DataTransferShortestDirectionUsed)
{
    // Memory (5) -> L2 0 is one hop backwards; must not cost the
    // 5-hop forward path.
    const Tick one_fwd = ring_->reserveDataTransfer(0, 1, 0);
    const Tick one_bwd =
        ring_->reserveDataTransfer(topo_.memAgent(), 0, 10000);
    EXPECT_EQ(one_fwd - 0, one_bwd - 10000);
}

TEST_F(RingTest, CongestedSegmentDelaysTransfers)
{
    // Saturate segment 0->1 with many transfers at the same tick.
    Tick last = 0;
    for (int i = 0; i < 10; ++i)
        last = ring_->reserveDataTransfer(0, 1, 0);
    const Tick uncongested =
        ring_->reserveDataTransfer(2, 3, 0); // different segment
    EXPECT_GT(last, uncongested);
}

TEST_F(RingTest, BidirectionalPathsRelieveLoad)
{
    // With the forward direction saturated, the reverse path gets
    // picked and arrival stays bounded.
    for (int i = 0; i < 50; ++i)
        ring_->reserveDataTransfer(0, 3, 0); // both dirs fill up
    const Tick a = ring_->reserveDataTransfer(0, 3, 0);
    // Another distinct pair remains fast.
    const Tick b =
        ring_->reserveDataTransfer(topo_.l3Agent(), topo_.memAgent(), 0);
    EXPECT_GT(a, b);
}

TEST_F(RingTest, ObserverSeesEveryCombine)
{
    int n = 0;
    ring_->setObserver(
        [&](const BusRequest &, const CombinedResult &) { ++n; });
    ring_->issue(read(0x1000, 0));
    ring_->issue(read(0x2000, 1));
    eq_.run();
    EXPECT_EQ(n, 2);
}

TEST(RingAttachDeath, AgentsMustArriveInIdOrder)
{
    const CmpTopology topo = CmpTopology::flat(2, 2);
    stats::Group root("sys");
    EventQueue eq;
    Ring ring(&root, eq, RingParams{}, topo);
    MockAgent l2_1(topo.l2Agent(1));
    EXPECT_DEATH(ring.attach(&l2_1), "attached out of id order");
}

TEST(RingAttachDeath, NoAgentPastNumAgents)
{
    const CmpTopology topo = CmpTopology::flat(2, 2);
    stats::Group root("sys");
    EventQueue eq;
    Ring ring(&root, eq, RingParams{}, topo);
    std::vector<std::unique_ptr<MockAgent>> agents;
    for (unsigned a = 0; a < topo.numAgents(); ++a) {
        agents.push_back(
            std::make_unique<MockAgent>(static_cast<AgentId>(a)));
        ring.attach(agents.back().get());
    }
    MockAgent extra(static_cast<AgentId>(topo.numAgents()));
    EXPECT_DEATH(ring.attach(&extra), "to a ring of 4");
}
