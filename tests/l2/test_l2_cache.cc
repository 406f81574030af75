/**
 * @file
 * Focused L2 controller tests: the cache is wired to a real Ring with
 * scripted mock L3/memory agents, so snoop responses, write-back
 * drain, WBHT gating and snarf accept/decline logic can be exercised
 * without a whole CmpSystem.
 */

#include <gtest/gtest.h>

#include "l2/l2_cache.hh"
#include "sim/event_queue.hh"

using namespace cmpcache;

namespace
{

/** Scripted L3/memory stand-in. */
class StubAgent : public BusAgent
{
  public:
    explicit StubAgent(AgentId id) : id_(id) {}

    AgentId agentId() const override { return id_; }

    SnoopResponse
    snoop(const BusRequest &req) override
    {
        lastSnooped = req;
        ++snoops;
        return scripted;
    }

    void
    observeCombined(const BusRequest &, const CombinedResult &) override
    {
    }

    void
    receiveWriteBack(const BusRequest &req) override
    {
        wbData.push_back(req.lineAddr);
    }

    AgentId id_;
    SnoopResponse scripted;
    BusRequest lastSnooped;
    int snoops = 0;
    std::vector<Addr> wbData;
};

class L2Test : public ::testing::Test
{
  protected:
    explicit L2Test(PolicyConfig policy = {})
        : root_("sys"), topo_(CmpTopology::flat(2, 2))
    {
        RingParams rp;
        ring_ = std::make_unique<Ring>(&root_, eq_, rp, topo_);
        retry_ = std::make_unique<RetryMonitor>(
            &root_, RetryMonitor::Params{});
        ring_->setRetryMonitor(retry_.get());

        L2Params lp;
        lp.sizeBytes = 1024; // 4 sets x 2 ways, 128 B lines
        lp.assoc = 2;
        l2_ = std::make_unique<L2Cache>(&root_, eq_, "l2_0",
                                        topo_.l2Agent(0), lp, policy,
                                        *ring_, retry_.get());
        peer_ = std::make_unique<L2Cache>(&root_, eq_, "l2_1",
                                          topo_.l2Agent(1), lp, policy,
                                          *ring_, retry_.get());
        l3_ = std::make_unique<StubAgent>(topo_.l3Agent());
        mem_ = std::make_unique<StubAgent>(topo_.memAgent());
        ring_->attach(l2_.get());
        ring_->attach(peer_.get());
        ring_->attach(l3_.get());
        ring_->attach(mem_.get());
        l3_->scripted.wbAccept = true; // absorb by default

        l2_->setCompletionCallback(
            [this](ThreadId tid) { completions.push_back(tid); });
        l2_->setL3Peek([this](Addr a) { return l3PeekResult(a); });
    }

    virtual bool l3PeekResult(Addr) { return false; }

    /** Miss a line in and let everything settle. */
    void
    fill(Addr addr, MemOp op = MemOp::Load, ThreadId tid = 0)
    {
        ASSERT_EQ(l2_->access(tid, addr, op),
                  L2Cache::AccessResult::Miss);
        eq_.run();
    }

    stats::Group root_;
    EventQueue eq_;
    CmpTopology topo_;
    std::unique_ptr<Ring> ring_;
    std::unique_ptr<RetryMonitor> retry_;
    std::unique_ptr<L2Cache> l2_;
    std::unique_ptr<L2Cache> peer_;
    std::unique_ptr<StubAgent> l3_;
    std::unique_ptr<StubAgent> mem_;
    std::vector<ThreadId> completions;
};

constexpr Addr SetStride = 512; // 4 sets x 128 B

} // namespace

TEST_F(L2Test, MissFillsAndCompletesWaiter)
{
    fill(0x0);
    EXPECT_EQ(completions.size(), 1u);
    const TagEntry *e = l2_->tags().peek(0x0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, LineState::Exclusive);
}

TEST_F(L2Test, StoreMissFillsModified)
{
    fill(0x0, MemOp::Store);
    const TagEntry *e = l2_->tags().peek(0x0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, LineState::Modified);
}

TEST_F(L2Test, CleanEvictionIssuesWbCleanToL3)
{
    fill(0x0);
    fill(SetStride);
    fill(2 * SetStride); // evicts 0x0 (clean)
    ASSERT_EQ(l3_->wbData.size(), 1u);
    EXPECT_EQ(l3_->wbData[0], 0x0u);
}

TEST_F(L2Test, DirtyEvictionIssuesWbDirty)
{
    fill(0x0, MemOp::Store);
    fill(SetStride);
    fill(2 * SetStride);
    ASSERT_GE(l3_->wbData.size(), 1u);
    EXPECT_EQ(l3_->wbData[0], 0x0u);
}

TEST_F(L2Test, SquashedWbAllocatesNothingWithoutWbht)
{
    l3_->scripted.l3Hit = true; // L3 claims every line
    fill(0x0);
    fill(SetStride);
    fill(2 * SetStride);
    // Squash: no data transferred to the L3.
    EXPECT_TRUE(l3_->wbData.empty());
    EXPECT_EQ(l2_->wbht(), nullptr);
}

TEST_F(L2Test, SnoopSuppliesFromExclusive)
{
    fill(0x0);
    // Peer misses on the same line: our E copy supplies and drops to
    // Shared; the peer becomes SL.
    ASSERT_EQ(peer_->access(0, 0x0, MemOp::Load),
              L2Cache::AccessResult::Miss);
    eq_.run();
    EXPECT_EQ(l2_->tags().peek(0x0)->state, LineState::Shared);
    EXPECT_EQ(peer_->tags().peek(0x0)->state, LineState::SharedLast);
    EXPECT_EQ(l2_->demandAccesses(), 1u);
}

TEST_F(L2Test, SnoopReadExclInvalidatesUs)
{
    fill(0x0);
    ASSERT_EQ(peer_->access(0, 0x0, MemOp::Store),
              L2Cache::AccessResult::Miss);
    eq_.run();
    EXPECT_EQ(l2_->tags().peek(0x0), nullptr);
    EXPECT_EQ(peer_->tags().peek(0x0)->state, LineState::Modified);
}

TEST_F(L2Test, DirtySnoopProducesTaggedOwner)
{
    fill(0x0, MemOp::Store); // we hold M
    ASSERT_EQ(peer_->access(0, 0x0, MemOp::Load),
              L2Cache::AccessResult::Miss);
    eq_.run();
    EXPECT_EQ(l2_->tags().peek(0x0)->state, LineState::Tagged);
    EXPECT_EQ(peer_->tags().peek(0x0)->state, LineState::Shared);
}

TEST_F(L2Test, MshrCoalescingSharesOneFill)
{
    ASSERT_EQ(l2_->access(0, 0x0, MemOp::Load),
              L2Cache::AccessResult::Miss);
    ASSERT_EQ(l2_->access(1, 0x40, MemOp::Load),
              L2Cache::AccessResult::Miss); // same line
    eq_.run();
    EXPECT_EQ(completions.size(), 2u);
    EXPECT_EQ(mem_->snoops, 1); // one bus transaction only
}

TEST_F(L2Test, BlockedWhenMshrsFull)
{
    L2Params lp;
    lp.sizeBytes = 1024;
    lp.assoc = 2;
    lp.mshrs = 1;
    PolicyConfig pc;
    L2Cache small(&root_, eq_, "l2_small", topo_.l2Agent(0), lp, pc,
                  *ring_, retry_.get());
    // Detached from the ring's agent list on purpose: only the
    // resource check matters here, and the queue never runs.
    EXPECT_EQ(small.access(0, 0x0, MemOp::Load),
              L2Cache::AccessResult::Miss);
    EXPECT_EQ(small.access(0, 0x200, MemOp::Load),
              L2Cache::AccessResult::Blocked);
}

TEST_F(L2Test, UpgradePathCompletesStore)
{
    fill(0x0);
    // Demote our copy to Shared via a peer read.
    ASSERT_EQ(peer_->access(0, 0x0, MemOp::Load),
              L2Cache::AccessResult::Miss);
    eq_.run();
    ASSERT_EQ(l2_->tags().peek(0x0)->state, LineState::Shared);

    completions.clear();
    ASSERT_EQ(l2_->access(2, 0x0, MemOp::Store),
              L2Cache::AccessResult::Miss); // upgrade, not refetch
    eq_.run();
    EXPECT_EQ(completions.size(), 1u);
    EXPECT_EQ(l2_->tags().peek(0x0)->state, LineState::Modified);
    EXPECT_EQ(peer_->tags().peek(0x0), nullptr); // invalidated
}

TEST_F(L2Test, SupplyBankOccupancySerializesSameSlice)
{
    fill(0x0);
    BusRequest rq;
    rq.lineAddr = 0x0;
    rq.cmd = BusCmd::Read;
    const Tick t1 = l2_->scheduleSupply(rq, 1000);
    const Tick t2 = l2_->scheduleSupply(rq, 1000);
    EXPECT_EQ(t2 - t1, l2_->params().supplyOccupancy);
    // Different slice: no serialization.
    BusRequest other = rq;
    other.lineAddr = 0x80; // next line -> next slice
    EXPECT_EQ(l2_->scheduleSupply(other, 1000),
              1000 + l2_->params().supplyLatency);
}

namespace
{

class L2WbhtTest : public L2Test
{
  protected:
    L2WbhtTest()
        : L2Test([] {
              auto p = PolicyConfig::make(WbPolicy::Wbht);
              p.useRetrySwitch = false;
              p.wbht.entries = 256;
              return p;
          }())
    {
    }

    bool l3PeekResult(Addr) override { return peek_; }

    bool peek_ = false;
};

} // namespace

TEST_F(L2WbhtTest, AbortsOnlyAfterL3ValidEvidence)
{
    // Cycle 1: write back accepted (L3 does not have the line).
    fill(0x0);
    fill(SetStride);
    fill(2 * SetStride);
    EXPECT_EQ(l3_->wbData.size(), 1u);
    EXPECT_EQ(l2_->wbAbortedByWbht(), 0u);

    // Cycle 2: L3 now reports the line valid -> squash + allocate.
    l3_->scripted.l3Hit = true;
    peek_ = true;
    fill(0x0);
    fill(SetStride); // evicts something; set assoc 2
    fill(2 * SetStride);
    ASSERT_NE(l2_->wbht(), nullptr);
    EXPECT_GE(l2_->wbht()->table().countValid(), 1u);

    // Cycle 3: the WBHT aborts the (now known-redundant) write back.
    const auto squashes_before = l2_->wbIssued();
    fill(0x0);
    fill(SetStride);
    fill(2 * SetStride);
    EXPECT_GE(l2_->wbAbortedByWbht(), 1u);
    (void)squashes_before;
}

TEST_F(L2WbhtTest, RetrySwitchOffMeansNoConsultation)
{
    // Re-create with the switch enabled and quiet bus: no aborts.
    auto p = PolicyConfig::make(WbPolicy::Wbht);
    p.useRetrySwitch = true;
    // (default monitor: never trips during this tiny test)
    L2Params lp;
    lp.sizeBytes = 1024;
    lp.assoc = 2;
    L2Cache gated(&root_, eq_, "l2_gated", topo_.l2Agent(0), lp, p,
                  *ring_, retry_.get());
    ASSERT_NE(gated.wbht(), nullptr);
    EXPECT_EQ(gated.wbAbortedByWbht(), 0u);
}
