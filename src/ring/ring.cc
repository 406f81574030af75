#include "ring/ring.hh"

#include <algorithm>

#include "check/version_oracle.hh"
#include "common/logging.hh"
#include "core/retry_monitor.hh"
#include "fault/fault_injector.hh"
#include "obs/trace_export.hh"

namespace cmpcache
{

Ring::Ring(stats::Group *parent, EventQueue &eq, const RingParams &p,
           const CmpTopology &topo)
    : SimObject(parent, "ring", eq),
      params_(p),
      topo_(topo),
      collector_(this, topo_),
      requests_(this, "requests", "address-ring transactions issued"),
      launches_(this, "launches", "address-ring slots used"),
      dataTransfers_(this, "data_transfers",
                     "line transfers on the data ring"),
      dataSegmentWaits_(this, "data_segment_waits",
                        "transfers delayed by a busy segment"),
      retryResponses_(this, "retry_responses",
                      "transactions answered with Retry"),
      queueDelay_(this, "queue_delay",
                  "cycles requests waited for an address slot"),
      queueDepth_(this, "queue_depth",
                  "address queue depth at enqueue time", 0, 64, 16),
      pendingNow_(this, "pending_now",
                  "requests queued for an address slot right now",
                  [this] {
                      return static_cast<double>(reqQueue_.size());
                  })
{
    for (auto &segments : nextFree_)
        segments.assign(topo_.numAgents(), 0);
}

void
Ring::attach(BusAgent *agent)
{
    cmp_assert(agent != nullptr, "attaching null agent");
    cmp_assert(agents_.size() < topo_.numAgents(), "attaching agent ",
               unsigned{agent->agentId()}, " to a ring of ",
               topo_.numAgents());
    cmp_assert(agent->agentId() == agents_.size(), "agent ",
               unsigned{agent->agentId()}, " attached out of id order");
    agents_.push_back(agent);
}

std::uint64_t
Ring::issue(const BusRequest &req)
{
    BusRequest r = req;
    r.txnId = nextTxnId_++;
    ++requests_;
    queueDepth_.sample(static_cast<double>(reqQueue_.size()));
    reqQueue_.push_back(PendingReq{r, curTick()});
    scheduleDrain();
    return r.txnId;
}

void
Ring::scheduleDrain()
{
    if (reqQueue_.empty() || drainPending_)
        return;
    postDrain(std::max(curTick() + params_.requesterOverhead, nextLaunch_));
}

void
Ring::postDrain(Tick when)
{
    drainPending_ = true;
    eventq().at(when, [this] { drain(); }, "ring-drain");
}

void
Ring::drain()
{
    drainPending_ = false;
    cmp_assert(!reqQueue_.empty(), "ring drain with empty queue");
    const Tick now = curTick();
    if (now < nextLaunch_) {
        postDrain(nextLaunch_);
        return;
    }

    const PendingReq pending = reqQueue_.front();
    reqQueue_.pop_front();
    ++launches_;
    queueDelay_.sample(static_cast<double>(now - pending.enqueued));
    nextLaunch_ = now + params_.addrSlotCycles;

    const BusRequest req = pending.req;
    const Tick enq = pending.enqueued;
    const Tick delay = faults_ ? faults_->launchDelay(now) : 0;
    eventq().at(now + params_.snoopLatency + delay,
                [this, req, enq] { combineNow(req, enq); },
                "ring-combine");

    if (!reqQueue_.empty())
        postDrain(nextLaunch_);
}

void
Ring::combineNow(BusRequest req, Tick enqueued)
{
    cmp_assert(req.requester < agents_.size(),
               "request from unknown agent ", unsigned{req.requester});

    // Gather one snoop response per agent. The requester does not
    // snoop itself: its slot stays a default response, which no
    // combine rule reacts to. (Member scratch: combineNow only runs
    // from one-shot events and the buffer is dead once the collector
    // has combined it.)
    std::vector<SnoopResponse> &responses = snoopScratch_;
    responses.assign(agents_.size(), SnoopResponse{});
    for (unsigned a = 0; a < agents_.size(); ++a) {
        if (a != req.requester)
            responses[a] = agents_[a]->snoop(req);
    }

    const Tick now = curTick();

    // Suppressed snarf wins: clear the accept offers before the
    // collector arbitrates. The offering L2s still release their
    // tentative buffer reservations in observeCombined, exactly as
    // when they lose the round-robin.
    if (faults_ && isWriteBack(req.cmd)) {
        bool offered = false;
        for (const auto &r : responses)
            offered = offered || r.snarfAccept;
        if (offered && faults_->suppressSnarf(now)) {
            for (auto &r : responses)
                r.snarfAccept = false;
        }
    }

    CombinedResult res = collector_.combine(req, responses);

    // Forced retries and NACKs override the combined response. Every
    // agent treats a Retry by releasing its tentative reservations
    // (L3 queue slot, snarf buffer), so the override is protocol-safe
    // and exercises the same recovery path as a real conflict.
    if (faults_ && res.resp != CombinedResp::Retry
        && ((isWriteBack(req.cmd) && faults_->forceL3Retry(now))
            || faults_->nack(now))) {
        res = CombinedResult{};
    }

    if (res.resp == CombinedResp::Retry) {
        ++retryResponses_;
        if (retryMonitor_)
            retryMonitor_->recordRetry(now);
    }

    // The conformance oracle validates at the serialization point,
    // before any agent reacts to the combined response. Throws
    // (SimErrorKind::Conformance) on a stale supply.
    if (conformance_)
        conformance_->onCombined(req, res, now);

    if (observer_)
        observer_(req, res);

    // Everyone sees the combined response; peers first so their state
    // transitions precede the requester's reaction.
    for (unsigned a = 0; a < agents_.size(); ++a) {
        if (a != req.requester)
            agents_[a]->observeCombined(req, res);
    }
    agents_[req.requester]->observeCombined(req, res);

    // Route the data phase; the requester is one end of every
    // transfer.
    AgentId supplier = req.requester;
    AgentId sink = req.requester;
    switch (res.resp) {
      case CombinedResp::L2Data:
        supplier = res.source;
        break;
      case CombinedResp::L3Data:
        supplier = topo_.l3Agent();
        break;
      case CombinedResp::MemData:
        supplier = topo_.memAgent();
        break;
      case CombinedResp::WbAcceptL3:
        sink = topo_.l3Agent();
        break;
      case CombinedResp::WbSnarfed:
        sink = res.source;
        break;
      case CombinedResp::Retry:
      case CombinedResp::Upgraded:
      case CombinedResp::WbSquashed:
        // No data phase: the span ends at the combined response.
        if (tracer_) {
            tracer_->record({toString(req.cmd), "coherence", enqueued,
                             now, req.requester, 0, req.lineAddr,
                             toString(res.resp)});
        }
        return;
    }

    cmp_assert(supplier < agents_.size() && sink < agents_.size(),
               "data phase to or from an unknown agent");

    const Tick ready = agents_[supplier]->scheduleSupply(req, now);
    const Tick arrive = reserveDataTransfer(supplier, sink, ready);
    if (tracer_) {
        tracer_->record({toString(req.cmd), "coherence", enqueued,
                         arrive, req.requester, 0, req.lineAddr,
                         toString(res.resp)});
    }
    BusAgent *to = agents_[sink];
    if (isWriteBack(req.cmd)) {
        eventq().at(arrive, [to, req] { to->receiveWriteBack(req); },
                    "ring-wb-data");
    } else {
        eventq().at(arrive, [to, req, res] { to->receiveData(req, res); },
                    "ring-fill-data");
    }
}

Tick
Ring::reserveDataTransfer(AgentId src, AgentId dst, Tick earliest)
{
    ++dataTransfers_;
    if (src == dst)
        return earliest + params_.segmentOccupancy;

    // Evaluate both directions without committing and take the
    // earlier arrival; ties go to the shorter path, then clockwise.
    const unsigned n = topo_.numAgents();
    const unsigned hops[2] = {(dst + n - src) % n, (src + n - dst) % n};
    const Tick arrive[2] = {walkData(0, src, hops[0], earliest, nullptr),
                            walkData(1, src, hops[1], earliest, nullptr)};
    const int dir = arrive[1] < arrive[0]
                            || (arrive[1] == arrive[0]
                                && hops[1] < hops[0])
                        ? 1
                        : 0;

    // A transfer counts as delayed at most once, however many of its
    // segments were busy.
    bool waited = false;
    walkData(dir, src, hops[dir], earliest, &waited);
    if (waited)
        ++dataSegmentWaits_;
    return arrive[dir];
}

Tick
Ring::walkData(int dir, unsigned src, unsigned hops, Tick earliest,
               bool *waited)
{
    const unsigned n = topo_.numAgents();
    std::vector<Tick> &next_free = nextFree_[dir];
    Tick head = earliest;
    unsigned stop = src;
    for (unsigned h = 0; h < hops; ++h) {
        const unsigned seg = dir == 0 ? stop : (stop + n - 1) % n;
        head = std::max(head, next_free[seg]);
        if (waited) {
            *waited = *waited || next_free[seg] > earliest;
            next_free[seg] = head + params_.segmentOccupancy;
        }
        head += params_.hopCycles;
        stop = dir == 0 ? (stop + 1) % n : (stop + n - 1) % n;
    }
    // The tail of the line arrives one occupancy after the head
    // entered the last segment.
    return head - params_.hopCycles + params_.segmentOccupancy;
}

} // namespace cmpcache
