/**
 * @file
 * The Snoop Collector: the central entity that combines per-agent
 * snoop responses into the final bus response.
 *
 * Besides the baseline combining rules (intervention > L3 > memory;
 * retry on resource conflicts; squash of redundant clean write backs)
 * it implements the paper's snarf extension: when several L2 caches
 * signal that they can absorb a write back, a winner is chosen in a
 * fair round-robin fashion so the snarfed-write-back load is spread
 * across recipients.
 */

#ifndef CMPCACHE_COHERENCE_SNOOP_COLLECTOR_HH
#define CMPCACHE_COHERENCE_SNOOP_COLLECTOR_HH

#include <vector>

#include "coherence/bus.hh"
#include "sim/topology.hh"
#include "stats/stats.hh"

namespace cmpcache
{

class SnoopCollector : public stats::Group
{
  public:
    /**
     * @param parent    stats parent
     * @param topo      the machine shape; snarf arbitration rotates
     *                  over its L2 agents
     */
    SnoopCollector(stats::Group *parent, const CmpTopology &topo);

    /**
     * Combine all snoop responses for @p req.
     *
     * @param req       the request on the address ring
     * @param responses one response per agent, indexed by AgentId
     *                  (the requester's slot is a default response);
     *                  the L3's response has its l3Hit/wbAccept fields
     *                  filled in
     */
    CombinedResult combine(const BusRequest &req,
                           const std::vector<SnoopResponse> &responses);

    /** Retries observed so far (input to the WBHT RetryMonitor). */
    std::uint64_t totalRetries() const { return retries_.value(); }
    /** Reads served by L2-to-L2 transfer so far. */
    std::uint64_t totalInterventions() const
    {
        return interventions_.value();
    }

  private:
    CombinedResult combineAccess(const BusRequest &req,
                                 const std::vector<SnoopResponse> &rs);
    CombinedResult combineWriteBack(const BusRequest &req,
                                    const std::vector<SnoopResponse> &rs);

    /** Round-robin selection among willing snarfers. */
    AgentId pickSnarfWinner(const std::vector<SnoopResponse> &rs);

    CmpTopology topo_;
    /** Next round-robin starting position for snarf arbitration. */
    unsigned rrNext_ = 0;

    stats::Scalar combines_;
    stats::Scalar retries_;
    stats::Scalar interventions_;
    stats::Scalar dirtyInterventions_;
    stats::Scalar l3Supplies_;
    stats::Scalar memSupplies_;
    stats::Scalar upgrades_;
    stats::Scalar wbAccepts_;
    stats::Scalar wbSquashes_;
    stats::Scalar wbSnarfs_;
};

} // namespace cmpcache

#endif // CMPCACHE_COHERENCE_SNOOP_COLLECTOR_HH
