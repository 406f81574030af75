/** @file Unit tests driving the L3 victim cache controller directly. */

#include <gtest/gtest.h>

#include "l3/l3_cache.hh"
#include "sim/event_queue.hh"
#include "sim/topology.hh"

using namespace cmpcache;

namespace
{

class L3Test : public ::testing::Test
{
  protected:
    L3Test() : root_("sys"), topo_(CmpTopology::flat(4, 4))
    {
        params_.sizeBytes = 64 * 1024; // small: 16 sets x 16 ways? ->
        params_.assoc = 16;            // 64K/(16*128) = 32 sets
        params_.wbQueueDepth = 2;
        l3_ = std::make_unique<L3Cache>(&root_, eq_, topo_.l3Agent(),
                                        params_);
        mem_writes_ = 0;
        l3_->setMemWriteFn([this] { ++mem_writes_; });
    }

    BusRequest
    req(BusCmd cmd, Addr addr, std::uint64_t txn = 1)
    {
        BusRequest r;
        r.lineAddr = addr;
        r.cmd = cmd;
        r.requester = 0;
        r.txnId = txn;
        return r;
    }

    /** Drive a full accepted write back (snoop + combine + data). */
    void
    absorb(Addr addr, bool dirty, std::uint64_t txn)
    {
        const auto wb_req =
            req(dirty ? BusCmd::WbDirty : BusCmd::WbClean, addr, txn);
        const auto resp = l3_->snoop(wb_req);
        ASSERT_TRUE(resp.wbAccept) << "queue unexpectedly full";
        CombinedResult res;
        res.resp = CombinedResp::WbAcceptL3;
        l3_->observeCombined(wb_req, res);
        l3_->receiveWriteBack(wb_req);
        eq_.run(); // drain queue-release events
    }

    stats::Group root_;
    EventQueue eq_;
    CmpTopology topo_;
    L3Params params_;
    std::unique_ptr<L3Cache> l3_;
    int mem_writes_ = 0;
};

} // namespace

TEST_F(L3Test, ReadMissThenAbsorbThenHit)
{
    auto r1 = l3_->snoop(req(BusCmd::Read, 0x1000));
    EXPECT_FALSE(r1.l3Hit);
    absorb(0x1000, false, 2);
    auto r2 = l3_->snoop(req(BusCmd::Read, 0x1000, 3));
    EXPECT_TRUE(r2.l3Hit);
    EXPECT_TRUE(l3_->hasLineValid(0x1000));
}

TEST_F(L3Test, CleanWbOfResidentLineSquashes)
{
    absorb(0x1000, false, 2);
    auto resp = l3_->snoop(req(BusCmd::WbClean, 0x1000, 3));
    EXPECT_TRUE(resp.l3Hit);
    EXPECT_FALSE(resp.wbAccept);
    EXPECT_EQ(l3_->cleanWbAlreadyValid(), 1u);
}

TEST_F(L3Test, FullQueueRetries)
{
    // Two in-flight write backs to the same slice fill the depth-2
    // queue; a third gets a retry.
    const Addr slice0_a = 0x0;
    const Addr slice0_b = 4 * 128;  // lines interleave slices by low
    const Addr slice0_c = 8 * 128;  // bits: stride 4 lines = slice 0

    auto r1 = req(BusCmd::WbDirty, slice0_a, 10);
    ASSERT_TRUE(l3_->snoop(r1).wbAccept);
    CombinedResult acc;
    acc.resp = CombinedResp::WbAcceptL3;
    l3_->observeCombined(r1, acc);

    auto r2 = req(BusCmd::WbDirty, slice0_b, 11);
    ASSERT_TRUE(l3_->snoop(r2).wbAccept);
    l3_->observeCombined(r2, acc);

    auto r3 = req(BusCmd::WbDirty, slice0_c, 12);
    const auto resp3 = l3_->snoop(r3);
    EXPECT_FALSE(resp3.wbAccept);
    EXPECT_TRUE(resp3.retry);
    EXPECT_EQ(l3_->retriesIssued(), 1u);
}

TEST_F(L3Test, QueueSlotFreedAfterWriteCompletes)
{
    const Addr a = 0x0;
    const Addr b = 4 * 128;
    const Addr c = 8 * 128;
    absorb(a, true, 20);
    absorb(b, true, 21);
    // Releases ran in absorb(); the third write back is accepted.
    auto r = req(BusCmd::WbDirty, c, 22);
    EXPECT_TRUE(l3_->snoop(r).wbAccept);
}

TEST_F(L3Test, ReservationReleasedWhenWbGoesElsewhere)
{
    auto r1 = req(BusCmd::WbDirty, 0x0, 30);
    ASSERT_TRUE(l3_->snoop(r1).wbAccept);
    CombinedResult snarfed;
    snarfed.resp = CombinedResp::WbSnarfed;
    snarfed.source = 1;
    l3_->observeCombined(r1, snarfed); // peer took it

    // Queue must be empty again: two more accepts possible.
    auto r2 = req(BusCmd::WbDirty, 4 * 128, 31);
    auto r3 = req(BusCmd::WbDirty, 8 * 128, 32);
    ASSERT_TRUE(l3_->snoop(r2).wbAccept);
    CombinedResult acc;
    acc.resp = CombinedResp::WbAcceptL3;
    l3_->observeCombined(r2, acc);
    EXPECT_TRUE(l3_->snoop(r3).wbAccept);
}

TEST_F(L3Test, ReadExclInvalidatesResidentLine)
{
    absorb(0x1000, false, 40);
    const auto rx = req(BusCmd::ReadExcl, 0x1000, 41);
    auto resp = l3_->snoop(rx);
    EXPECT_TRUE(resp.l3Hit);
    CombinedResult res;
    res.resp = CombinedResp::L3Data;
    l3_->observeCombined(rx, res);
    EXPECT_FALSE(l3_->hasLineValid(0x1000));
}

TEST_F(L3Test, UpgradeInvalidatesResidentLine)
{
    absorb(0x1000, false, 50);
    const auto up = req(BusCmd::Upgrade, 0x1000, 51);
    l3_->snoop(up);
    CombinedResult res;
    res.resp = CombinedResp::Upgraded;
    l3_->observeCombined(up, res);
    EXPECT_FALSE(l3_->hasLineValid(0x1000));
}

TEST_F(L3Test, DirtyVictimGoesToMemory)
{
    // Fill one set (16 ways) with dirty lines, then absorb one more
    // mapping to the same set: the LRU dirty victim goes to memory.
    // Set stride = 32 sets * 128 B = 4096.
    std::uint64_t txn = 60;
    for (int i = 0; i < 16; ++i)
        absorb(0x0 + static_cast<Addr>(i) * 32 * 128, true, txn++);
    EXPECT_EQ(mem_writes_, 0);
    absorb(0x0 + 16ull * 32 * 128, true, txn++);
    EXPECT_EQ(mem_writes_, 1);
}

TEST_F(L3Test, CleanVictimDropped)
{
    std::uint64_t txn = 80;
    for (int i = 0; i < 17; ++i)
        absorb(0x0 + static_cast<Addr>(i) * 32 * 128, false, txn++);
    EXPECT_EQ(mem_writes_, 0);
}

TEST_F(L3Test, SupplyLatencyIncludesBankOccupancy)
{
    absorb(0x1000, false, 90);
    const auto rd = req(BusCmd::Read, 0x1000, 91);
    const Tick t1 = l3_->scheduleSupply(rd, 1000);
    EXPECT_EQ(t1, 1000 + params_.accessLatency);
    // A second supply to the same slice queues behind the bank.
    const Tick t2 = l3_->scheduleSupply(rd, 1000);
    EXPECT_EQ(t2, 1000 + params_.bankOccupancy + params_.accessLatency);
}

TEST_F(L3Test, LoadHitRateUsesServedSemantics)
{
    // One load served by the L3, one falling through to memory.
    absorb(0x1000, false, 95);
    const auto hit_rq = req(BusCmd::Read, 0x1000, 96);
    l3_->snoop(hit_rq);
    CombinedResult l3data;
    l3data.resp = CombinedResp::L3Data;
    l3_->observeCombined(hit_rq, l3data);

    const auto miss_rq = req(BusCmd::Read, 0x9000, 97);
    l3_->snoop(miss_rq);
    CombinedResult memdata;
    memdata.resp = CombinedResp::MemData;
    l3_->observeCombined(miss_rq, memdata);

    EXPECT_DOUBLE_EQ(l3_->loadHitRate(), 0.5);
}

TEST_F(L3Test, SquashConsumesQueueBriefly)
{
    params_.wbQueueDepth = 1;
    L3Cache l3(&root_, eq_, topo_.l3Agent(), params_);
    // Make a line resident.
    auto wb = req(BusCmd::WbClean, 0x0, 100);
    ASSERT_TRUE(l3.snoop(wb).wbAccept);
    CombinedResult acc;
    acc.resp = CombinedResp::WbAcceptL3;
    l3.observeCombined(wb, acc);
    l3.receiveWriteBack(wb);
    eq_.run();

    // First redundant write back squashes and briefly occupies the
    // only queue slot; an immediate second one is retried.
    auto s1 = l3.snoop(req(BusCmd::WbClean, 0x0, 101));
    EXPECT_TRUE(s1.l3Hit);
    EXPECT_FALSE(s1.retry);
    auto s2 = l3.snoop(req(BusCmd::WbClean, 0x0, 102));
    EXPECT_TRUE(s2.retry);
}
