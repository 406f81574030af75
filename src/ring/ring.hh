/**
 * @file
 * The bi-directional intrachip ring interconnect (paper Figure 1 /
 * Table 3: 32 B wide, clocked at half core speed).
 *
 * Two logical networks are modelled:
 *
 *  - The *address ring* carries broadcast requests and snooping. It is
 *    slotted: one transaction launches every `addrSlotCycles`; pending
 *    requests queue FIFO. A fixed `snoopLatency` after launch, every
 *    agent's snoop response is gathered, the Snoop Collector combines
 *    them, and the combined response becomes visible to all agents.
 *
 *  - The *data ring* carries line transfers point-to-point between
 *    ring stops; agent a sits at stop a. Each inter-stop segment is
 *    a resource a transfer occupies for `segmentOccupancy` cycles,
 *    with one reservation array per direction. Transfers take the
 *    direction that arrives first and queue on busy segments, so
 *    contention lengthens latency under load.
 *
 * Component latencies are chosen so the contention-free load-to-use
 * totals match paper Table 3: 77 cycles L2-to-L2, 167 cycles from the
 * L3, 431 cycles from memory.
 *
 * The ring is also the transaction orchestrator: at combine time it
 * asks the supplier for its service-ready time, routes the data, and
 * delivers it to the destination agent.
 */

#ifndef CMPCACHE_RING_RING_HH
#define CMPCACHE_RING_RING_HH

#include <functional>
#include <utility>
#include <vector>

#include "coherence/bus.hh"
#include "coherence/snoop_collector.hh"
#include "common/circular_buffer.hh"
#include "sim/sim_object.hh"
#include "sim/topology.hh"

namespace cmpcache
{

class FaultInjector;
class RetryMonitor;
class TraceRecorder;
class VersionOracle;

/** Interface every component on the ring implements. */
class BusAgent
{
  public:
    virtual ~BusAgent() = default;

    /** The agent's topology id, which is also its ring stop. */
    virtual AgentId agentId() const = 0;

    /**
     * Produce a snoop response for a foreign request. Must not mutate
     * coherence state (state changes apply at observeCombined);
     * resource *reservations* (L3 queue slot, snarf buffer) are
     * allowed and must be released in observeCombined if the combined
     * result went elsewhere.
     */
    virtual SnoopResponse snoop(const BusRequest &req) = 0;

    /** The combined response, visible to every agent (including the
     * requester, which reacts to its own transaction here). */
    virtual void observeCombined(const BusRequest &req,
                                 const CombinedResult &res)
        = 0;

    /**
     * Called on the data supplier: reserve array/bank resources and
     * return the tick the line is ready to leave this agent.
     */
    virtual Tick
    scheduleSupply(const BusRequest &req, Tick combine_time)
    {
        (void)req;
        return combine_time;
    }

    /** Demand data arrives at the requester. */
    virtual void
    receiveData(const BusRequest &req, const CombinedResult &res)
    {
        (void)req;
        (void)res;
    }

    /** Write-back data arrives (L3 absorb or snarf winner). */
    virtual void receiveWriteBack(const BusRequest &req)
    {
        (void)req;
    }
};

/**
 * Timing parameters of the ring. Its geometry (one stop per agent,
 * one segment between neighbouring stops) derives from the
 * CmpTopology the ring is built with.
 */
struct RingParams
{
    unsigned addrSlotCycles = 2;///< one request launch per slot
    Tick snoopLatency = 33;     ///< launch -> combined response
    Tick hopCycles = 4;         ///< data head latency per segment
    Tick segmentOccupancy = 4;  ///< 128 B line at 64 B/beat, 1:2 clock
    Tick requesterOverhead = 4; ///< miss detect -> request enqueued
};

class Ring : public SimObject
{
  public:
    Ring(stats::Group *parent, EventQueue &eq, const RingParams &p,
         const CmpTopology &topo);

    /**
     * Register an agent. Agents attach in id order (the L2s, the L3,
     * then memory: CmpTopology's numbering), so agents_[a] is agent
     * a; every agent must be attached before the first combine.
     */
    void attach(BusAgent *agent);

    /** The system's retry monitor observes ring retries. */
    void setRetryMonitor(RetryMonitor *mon) { retryMonitor_ = mon; }

    /**
     * Install the fault injector (null disables injection). The ring
     * is where the FaultPlan's message faults land: launch delays,
     * forced L3-retry responses for write backs, blanket NACKs and
     * suppressed snarf wins -- all applied at combine time, where the
     * protocol already handles Retry outcomes, so no new recovery
     * paths are needed (see docs/robustness.md).
     */
    void setFaultInjector(FaultInjector *f) { faults_ = f; }

    /** Requests waiting for an address slot (watchdog diagnostics). */
    std::size_t pendingRequests() const { return reqQueue_.size(); }

    /**
     * Line address and enqueue tick of the oldest queued request;
     * false if the queue is empty.
     */
    bool oldestPending(Addr &line, Tick &enqueued) const
    {
        if (reqQueue_.empty())
            return false;
        line = reqQueue_.front().req.lineAddr;
        enqueued = reqQueue_.front().enqueued;
        return true;
    }

    /** Record a duration event per completed transaction (issue to
     * data delivery) into @p t; null disables tracing. */
    void setTracer(TraceRecorder *t) { tracer_ = t; }

    /**
     * Analysis hook invoked for every combined response (used by the
     * redundancy/reuse trackers behind Tables 1 and 2, and by tests).
     * Purely observational: runs after the combine, before agents.
     */
    using Observer =
        std::function<void(const BusRequest &, const CombinedResult &)>;
    void setObserver(Observer obs) { observer_ = std::move(obs); }

    /**
     * Conformance oracle hook (check.oracle): every combined response
     * -- after fault overrides, before any agent reacts -- is
     * validated against the shadow write-epoch model. Separate from
     * the analysis observer slot so both can be active at once.
     */
    void setConformance(VersionOracle *o) { conformance_ = o; }

    /**
     * Enqueue a request for the address ring. The requester learns
     * the outcome in observeCombined().
     * @return the assigned transaction id
     */
    std::uint64_t issue(const BusRequest &req);

    SnoopCollector &collector() { return collector_; }
    const RingParams &params() const { return params_; }
    const CmpTopology &topology() const { return topo_; }

    /**
     * Reserve the data path from agent @p src to agent @p dst for one
     * line, no earlier than @p earliest: evaluate both directions and
     * commit the earlier arrival (ties go to the shorter path, then
     * clockwise).
     * @return delivery tick at the destination
     */
    Tick reserveDataTransfer(AgentId src, AgentId dst, Tick earliest);

  private:
    /**
     * Walk @p hops segments from stop @p src in direction @p dir for
     * a line leaving no earlier than @p earliest and return the tick
     * its tail arrives. Given @p waited, the walk also reserves each
     * segment and sets *@p waited if one was busy past @p earliest.
     */
    Tick walkData(int dir, unsigned src, unsigned hops, Tick earliest,
                  bool *waited);
    void scheduleDrain();
    /** Post drain() at @p when. */
    void postDrain(Tick when);
    void drain();
    void combineNow(BusRequest req, Tick enqueued);

    struct PendingReq
    {
        BusRequest req;
        Tick enqueued;
    };

    RingParams params_;
    CmpTopology topo_;
    SnoopCollector collector_;
    FaultInjector *faults_ = nullptr;
    RetryMonitor *retryMonitor_ = nullptr;
    TraceRecorder *tracer_ = nullptr;
    Observer observer_;
    VersionOracle *conformance_ = nullptr;

    /** Indexed by AgentId. */
    std::vector<BusAgent *> agents_;
    CircularBuffer<PendingReq> reqQueue_;
    Tick nextLaunch_ = 0;
    std::uint64_t nextTxnId_ = 1;
    /** A drain() callback is posted and has not run. */
    bool drainPending_ = false;

    /** Data-ring reservations, nextFree_[direction][segment]:
     * segment i joins stop i and stop (i+1) % numAgents, and
     * direction 0 is clockwise. */
    std::vector<Tick> nextFree_[2];

    /** Reused per-combine snoop-response buffer, one slot per agent
     * (combineNow is never reentrant: it only runs from one-shot
     * events). */
    std::vector<SnoopResponse> snoopScratch_;

    stats::Scalar requests_;
    stats::Scalar launches_;
    stats::Scalar dataTransfers_;
    stats::Scalar dataSegmentWaits_;
    stats::Scalar retryResponses_;
    stats::Average queueDelay_;
    stats::Histogram queueDepth_;
    /** Instantaneous address-queue occupancy (sampler probe). */
    stats::Formula pendingNow_;
};

} // namespace cmpcache

#endif // CMPCACHE_RING_RING_HH
