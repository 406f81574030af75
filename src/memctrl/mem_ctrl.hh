/**
 * @file
 * The on-chip memory controller: fixed-latency, bandwidth-limited
 * DRAM behind its own pathway (distinct from the L3's).
 */

#ifndef CMPCACHE_MEMCTRL_MEM_CTRL_HH
#define CMPCACHE_MEMCTRL_MEM_CTRL_HH

#include <vector>

#include "ring/ring.hh"
#include "sim/sim_object.hh"

namespace cmpcache
{

struct MemParams
{
    Tick accessLatency = 376;  ///< array access when supplying a line
    Tick channelOccupancy = 6; ///< service interval per line
};

class MemCtrl : public SimObject, public BusAgent
{
  public:
    MemCtrl(stats::Group *parent, EventQueue &eq, AgentId id,
            const MemParams &p);

    /** A dirty L3 victim arrives over the dedicated path. */
    void writeFromL3();

    // BusAgent interface
    AgentId agentId() const override { return id_; }
    SnoopResponse snoop(const BusRequest &req) override;
    void observeCombined(const BusRequest &req,
                         const CombinedResult &res) override;
    Tick scheduleSupply(const BusRequest &req, Tick combine_time)
        override;

    std::uint64_t reads() const { return reads_.value(); }
    std::uint64_t writes() const { return writes_.value(); }

  private:
    AgentId id_;
    MemParams params_;
    Tick channelFree_ = 0;
    /** Completion tick of each in-flight demand read; pruned lazily
     * on the next scheduleSupply, so it stays a handful of entries. */
    std::vector<Tick> inflight_;

    stats::Scalar reads_;
    stats::Scalar writes_;
    stats::Average queueWait_;
    /** Demand reads in flight right now (sampler probe). */
    stats::Formula outstandingNow_;
};

} // namespace cmpcache

#endif // CMPCACHE_MEMCTRL_MEM_CTRL_HH
