#include "memctrl/mem_ctrl.hh"

#include <algorithm>

namespace cmpcache
{

MemCtrl::MemCtrl(stats::Group *parent, EventQueue &eq, AgentId id,
                 const MemParams &p)
    : SimObject(parent, "mem", eq),
      id_(id),
      params_(p),
      reads_(this, "reads", "demand lines supplied from memory"),
      writes_(this, "writes", "lines written (dirty L3 victims)"),
      queueWait_(this, "queue_wait",
                 "cycles demand reads waited for the channel"),
      outstandingNow_(this, "outstanding_reads_now",
                      "demand reads in flight right now",
                      [this] {
                          const Tick now = curTick();
                          std::size_t n = 0;
                          for (const Tick done : inflight_)
                              n += done > now;
                          return static_cast<double>(n);
                      })
{
}

SnoopResponse
MemCtrl::snoop(const BusRequest &req)
{
    // Memory never retries demand requests and, in the modelled
    // protocol, never absorbs L2 write backs (the L3 retries instead).
    (void)req;
    return SnoopResponse{};
}

void
MemCtrl::observeCombined(const BusRequest &req, const CombinedResult &res)
{
    (void)req;
    (void)res;
}

Tick
MemCtrl::scheduleSupply(const BusRequest &req, Tick combine_time)
{
    (void)req;
    const Tick start = std::max(combine_time, channelFree_);
    queueWait_.sample(static_cast<double>(start - combine_time));
    channelFree_ = start + params_.channelOccupancy;
    ++reads_;
    const Tick done = start + params_.accessLatency;
    std::erase_if(inflight_,
                  [now = curTick()](Tick t) { return t <= now; });
    inflight_.push_back(done);
    return done;
}

void
MemCtrl::writeFromL3()
{
    channelFree_ =
        std::max(channelFree_, curTick()) + params_.channelOccupancy;
    ++writes_;
}

} // namespace cmpcache
