/** @file Unit tests for the memory controller. */

#include <gtest/gtest.h>

#include "memctrl/mem_ctrl.hh"
#include "sim/event_queue.hh"
#include "sim/topology.hh"

using namespace cmpcache;

namespace
{

class MemCtrlTest : public ::testing::Test
{
  protected:
    MemCtrlTest() : root_("sys")
    {
        mem_ = std::make_unique<MemCtrl>(
            &root_, eq_, CmpTopology::flat(4, 4).memAgent(), params_);
    }

    BusRequest
    rd(Addr a)
    {
        BusRequest r;
        r.lineAddr = a;
        r.cmd = BusCmd::Read;
        r.requester = 0;
        return r;
    }

    stats::Group root_;
    EventQueue eq_;
    MemParams params_;
    std::unique_ptr<MemCtrl> mem_;
};

} // namespace

TEST_F(MemCtrlTest, NeverRetries)
{
    const auto resp = mem_->snoop(rd(0x1000));
    EXPECT_FALSE(resp.retry);
    EXPECT_FALSE(resp.hasLine);
    EXPECT_FALSE(resp.wbAccept);
}

TEST_F(MemCtrlTest, SupplyHasFixedLatencyWhenIdle)
{
    EXPECT_EQ(mem_->scheduleSupply(rd(0x1000), 100),
              100 + params_.accessLatency);
    EXPECT_EQ(mem_->reads(), 1u);
}

TEST_F(MemCtrlTest, BackToBackSuppliesQueueOnChannel)
{
    const Tick t1 = mem_->scheduleSupply(rd(0x1000), 100);
    const Tick t2 = mem_->scheduleSupply(rd(0x2000), 100);
    EXPECT_EQ(t2 - t1, params_.channelOccupancy);
}

TEST_F(MemCtrlTest, ChannelRecoversAfterGap)
{
    mem_->scheduleSupply(rd(0x1000), 100);
    // Far in the future: no queuing.
    EXPECT_EQ(mem_->scheduleSupply(rd(0x2000), 10000),
              10000 + params_.accessLatency);
}

TEST_F(MemCtrlTest, L3VictimWritesConsumeBandwidth)
{
    mem_->writeFromL3();
    EXPECT_EQ(mem_->writes(), 1u);
    // The write occupies the channel: a read right after waits.
    const Tick t = mem_->scheduleSupply(rd(0x1000), 0);
    EXPECT_EQ(t, params_.channelOccupancy + params_.accessLatency);
}
