#include "l2/l2_cache.hh"

#include <algorithm>

#include "check/version_oracle.hh"
#include "common/logging.hh"
#include "fault/fault_injector.hh"

namespace cmpcache
{

L2Cache::L2Cache(stats::Group *parent, EventQueue &eq,
                 const std::string &name, AgentId id,
                 const L2Params &p, const PolicyConfig &policy,
                 Ring &ring, RetryMonitor *retry_monitor)
    : SimObject(parent, name, eq),
      id_(id),
      params_(p),
      policy_(policy),
      ring_(ring),
      retryMonitor_(retry_monitor),
      tags_(p.sizeBytes, p.assoc, p.lineSize),
      mshrs_(p.mshrs),
      wbq_(p.wbqDepth),
      sliceFree_(p.slices, 0),
      accesses_(this, "accesses", "CPU-side demand accesses"),
      loads_(this, "loads", "demand loads and ifetches"),
      stores_(this, "stores", "demand stores"),
      hits_(this, "hits", "demand hits"),
      misses_(this, "misses", "demand misses (MSHR allocations)"),
      upgradeRequests_(this, "upgrade_requests",
                       "stores needing an Upgrade transaction"),
      coalescedMisses_(this, "coalesced_misses",
                       "misses folded into an existing MSHR"),
      blockedMshr_(this, "blocked_mshr",
                   "accesses rejected: MSHRs full"),
      blockedWbq_(this, "blocked_wbq",
                  "accesses rejected: write-back queue full"),
      busRetriesSeen_(this, "bus_retries_seen",
                      "own transactions answered with Retry"),
      missLatency_(this, "miss_latency",
                   "demand miss latency (cycles)", 0, 1200, 24),
      wbEnqueued_(this, "wb_enqueued", "victims entering the WB queue"),
      wbIssued_(this, "wb_issued",
                "write-back bus transactions issued (incl. retries)"),
      wbIssuedClean_(this, "wb_issued_clean",
                     "clean write-back transactions issued"),
      wbIssuedDirty_(this, "wb_issued_dirty",
                     "dirty write-back transactions issued"),
      wbAbortedByWbht_(this, "wb_aborted_by_wbht",
                       "clean write backs aborted by the WBHT"),
      wbSquashed_(this, "wb_squashed",
                  "own write backs squashed (copy already valid)"),
      wbSnarfedOut_(this, "wb_snarfed_out",
                    "own write backs absorbed by a peer L2"),
      wbAcceptedL3_(this, "wb_accepted_l3",
                    "own write backs accepted by the L3"),
      interventionsSupplied_(this, "interventions_supplied",
                             "lines sourced to peer L2 misses"),
      snarfedReceived_(this, "snarfed_received",
                       "peer write backs absorbed into this cache"),
      snarfedDropped_(this, "snarfed_dropped",
                      "won snarfs dropped (victim disappeared)"),
      snarfLocalUse_(this, "snarf_local_use",
                     "snarfed lines later hit by a local thread"),
      snarfInterventionUse_(this, "snarf_intervention_use",
                            "snarfed lines later sourced to peers"),
      wbqDepthNow_(this, "wbq_depth_now",
                   "write-back queue entries right now",
                   [this] {
                       return static_cast<double>(wbq_.size());
                   }),
      mshrOccupancyNow_(this, "mshr_occupancy_now",
                        "MSHRs in use right now",
                        [this] {
                            return static_cast<double>(mshrs_.inUse());
                        }),
      wbhtGateNow_(this, "wbht_gate_now",
                   "are WBHT decisions active right now (0/1)",
                   [this] {
                       return wbhtDecisionsActive() ? 1.0 : 0.0;
                   })
{
    if (policy_.usesWbht()) {
        auto wp = policy_.wbht;
        wp.lineSize = p.lineSize;
        wbht_ = std::make_unique<WriteBackHistoryTable>(this, wp);
    }
    if (policy_.usesSnarf()) {
        auto sp = policy_.snarf;
        sp.lineSize = p.lineSize;
        snarfTable_ = std::make_unique<SnarfTable>(this, sp);
        pendingSnarfs_.reserve(policy_.snarfBuffers);
    }
    // A fill parks at most its MSHR's waiters here.
    storesPendingScratch_.reserve(MshrFile::kReservedWaiters);
}

bool
L2Cache::wbhtDecisionsActive() const
{
    if (!policy_.usesWbht())
        return false;
    if (faults_ && faults_->wbhtDisabled(curTick()))
        return false;
    if (!policy_.useRetrySwitch)
        return true;
    cmp_assert(retryMonitor_ != nullptr,
               "retry switch enabled without a monitor");
    return retryMonitor_->active(curTick());
}

// --------------------------------------------------------- CPU side

L2Cache::AccessResult
L2Cache::access(ThreadId tid, Addr addr, MemOp op)
{
    const Addr line = tags_.lineAlign(addr);
    const bool is_store = op == MemOp::Store;
    // Blocked attempts are re-issued by the CPU and must not inflate
    // the demand-access denominator; count on acceptance only.
    const auto count_access = [&] {
        ++accesses_;
        if (is_store)
            ++stores_;
        else
            ++loads_;
    };

    TagEntry *entry = tags_.lookup(line);
    if (entry) {
        // Loads and ifetches hit on any valid state; stores need
        // write permission.
        if (!is_store || canSilentStore(entry->state)) {
            count_access();
            ++hits_;
            if (is_store && entry->state == LineState::Exclusive)
                entry->state = LineState::Modified;
            if (is_store && oracle_)
                oracle_->onStore(id_, line, curTick());
            if (entry->snarfed && !entry->snarfUsedLocal) {
                entry->snarfUsedLocal = true;
                ++snarfLocalUse_;
            }
            return AccessResult::Hit;
        }
        // Store to S/SL/T: upgrade required.
        if (Mshr *m = mshrs_.find(line)) {
            mshrs_.addWaiter(m, tid, true, curTick());
            count_access();
            ++coalescedMisses_;
            return AccessResult::Miss;
        }
        if (mshrs_.full()) {
            ++blockedMshr_;
            return AccessResult::Blocked;
        }
        count_access();
        ++misses_;
        ++upgradeRequests_;
        Mshr *m = mshrs_.allocate(line, BusCmd::Upgrade, tid, true,
                                  curTick());
        tryIssue(m);
        return AccessResult::Miss;
    }

    // Tag miss.
    if (findPendingSnarf(line)) {
        // We already won this line's write back on the bus and its
        // data is in flight; issuing a demand fetch now would race it
        // (two installs of the same line). Hold the access off -- the
        // retried attempt hits the snarfed copy.
        ++blockedMshr_;
        return AccessResult::Blocked;
    }
    if (Mshr *m = mshrs_.find(line)) {
        mshrs_.addWaiter(m, tid, is_store, curTick());
        count_access();
        ++coalescedMisses_;
        return AccessResult::Miss;
    }
    if (mshrs_.full()) {
        ++blockedMshr_;
        return AccessResult::Blocked;
    }
    if (wbq_.full()) {
        // Fills need a WB-queue slot for the victim; conservatively
        // hold new misses off until one frees up (the paper's
        // "misses to the L2 will be blocked").
        ++blockedWbq_;
        return AccessResult::Blocked;
    }
    count_access();
    ++misses_;
    Mshr *m = mshrs_.allocate(
        line, is_store ? BusCmd::ReadExcl : BusCmd::Read, tid, is_store,
        curTick());
    tryIssue(m);
    return AccessResult::Miss;
}

void
L2Cache::tryIssue(Mshr *mshr)
{
    cmp_assert(!mshr->inService, "double issue of MSHR");
    mshr->inService = true;
    BusRequest req;
    req.lineAddr = mshr->lineAddr;
    req.cmd = mshr->cmd;
    req.requester = id_;
    ring_.issue(req);
}

// -------------------------------------------------- write-back path

void
L2Cache::queueWriteBack(Addr line, LineState state)
{
    cmp_assert(!wbq_.full(), "WB queue overflow");
    const bool dirty = isDirty(state);
    Tick ready = curTick();
    if (!dirty && policy_.usesWbht())
        ready += params_.wbhtLookupDelay;
    wbq_.push(line, dirty, ready);
    ++wbEnqueued_;
    scheduleWbDrain();
}

void
L2Cache::scheduleWbDrain()
{
    if (wbDrainPending_)
        return;
    const Tick earliest = wbq_.earliestReady();
    if (earliest == MaxTick)
        return;
    wbDrainPending_ = true;
    eventq().at(std::max(earliest, curTick()),
                [this] { drainWriteBacks(); }, "l2-wb-drain");
}

void
L2Cache::drainWriteBacks()
{
    wbDrainPending_ = false;
    const Tick now = curTick();
    while (WbEntry *e = wbq_.nextReady(now)) {
        if (!e->dirty && policy_.usesWbht() && wbhtDecisionsActive()) {
            const bool in_l3 = l3Peek_ ? l3Peek_(e->lineAddr) : false;
            if (wbht_->shouldAbort(e->lineAddr, in_l3)) {
                ++wbAbortedByWbht_;
                // Unless we refetched the line in the meantime --
                // installed in the tags already, or still in flight
                // behind a demand MSHR (the self-refetch race) -- the
                // queued victim was our last copy: let the oracle
                // check a newer version survives elsewhere.
                if (oracle_
                    && !tags_.lookup(e->lineAddr, /*touch=*/false)
                    && !mshrs_.find(e->lineAddr))
                    oracle_->onLocalSquash(id_, e->lineAddr, now);
                wbq_.remove(e);
                continue;
            }
        }
        BusRequest req;
        req.lineAddr = e->lineAddr;
        req.cmd = e->dirty ? BusCmd::WbDirty : BusCmd::WbClean;
        req.requester = id_;
        if (policy_.usesSnarf()
            && !(faults_ && faults_->snarfDisabled(now)))
            req.snarfHint = snarfTable_->shouldFlagSnarf(e->lineAddr);
        e->snarfHint = req.snarfHint;
        e->inFlight = true;
        ++wbIssued_;
        if (e->dirty)
            ++wbIssuedDirty_;
        else
            ++wbIssuedClean_;
        ring_.issue(req);
    }
    scheduleWbDrain();
}

// ------------------------------------------------------- snoop side

bool
L2Cache::snarfVictimAvailable(Addr addr)
{
    // Invalid ways are free space.
    if (tags_.anyInSet(addr,
                       [](const TagEntry &e) { return !e.valid(); })) {
        return true;
    }
    if (!policy_.snarfSharedVictims)
        return false;
    // Accept over a Shared line when the set is not starved of them:
    // either the set's next replacement victim is Shared (so the
    // displacement was imminent anyway), or several Shared copies
    // coexist (another cache very likely holds a duplicate).
    const TagEntry *v = tags_.findVictim(addr);
    if (v && v->state == LineState::Shared)
        return true;
    unsigned shared_ways = 0;
    tags_.anyInSet(addr, [&shared_ways](const TagEntry &e) {
        shared_ways += e.state == LineState::Shared;
        return false;
    });
    return shared_ways >= 2;
}

SnoopResponse
L2Cache::snoop(const BusRequest &req)
{
    SnoopResponse resp;
    const Addr line = req.lineAddr;

    // TEST ONLY (wb_blind_spot fault): pretend the transient copies
    // -- wbq victims, won snarfs, granted fills -- are invisible to
    // snoops, re-opening the PR-1 stale-data race so the conformance
    // oracle and the chaos minimizer have a real bug to catch.
    const bool blind = faults_ && faults_->wbBlindSpot(curTick());

    if (isWriteBack(req.cmd)) {
        // Peer L2s only examine their tags for snarf-flagged write
        // backs (pressure on L2 tags is why the snarf table exists).
        if (!policy_.usesSnarf() || !req.snarfHint)
            return resp;

        const TagEntry *entry = tags_.peek(line);
        if (entry) {
            // Valid copy here: the write back is redundant; squash it
            // via the special snoop reply.
            resp.hasLine = true;
            resp.hasDirty = isDirty(entry->state);
            return resp;
        }
        if (const WbEntry *queued = wbq_.find(line);
            queued && !blind) {
            // A victim parked in our write-back queue is still a copy
            // of the line: report it, or a concurrent peer write back
            // would see no sharers and its snarfer would install an
            // exclusive (Modified) copy next to the one our own write
            // back is about to hand to a third L2.
            resp.hasLine = true;
            resp.hasDirty = queued->dirty;
            return resp;
        }
        if (const PendingSnarf *ps = findPendingSnarf(line);
            ps && !blind) {
            // Same story for a snarf we have already won: the copy is
            // in flight to us and will be installed, so a concurrent
            // write back of the line must count us as a sharer.
            resp.hasLine = true;
            resp.hasDirty = ps->dirty;
            return resp;
        }
        if (const Mshr *m = mshrs_.find(line);
            m && m->awaitingData && !blind) {
            // And for a demand fill the bus has already granted us:
            // the data is on its way and will be installed.
            resp.hasLine = true;
            resp.hasDirty = m->cmd == BusCmd::ReadExcl;
            return resp;
        }
        // Offer to absorb if we have buffers, a victim candidate, and
        // no conflicting activity on the line.
        if (pendingSnarfs_.size() < policy_.snarfBuffers
            && !(faults_ && faults_->snarfDisabled(curTick()))
            && !mshrs_.find(line) && !wbq_.find(line)
            && !findPendingSnarf(line)
            && snarfVictimAvailable(line)) {
            resp.snarfAccept = true;
        }
        return resp;
    }

    // Demand request from a peer.
    // Address-collision serialization keeps concurrent misses to one
    // line from installing inconsistent states (the paper's protocol
    // counts such "race condition" retries in its retry-rate switch
    // input). We retry the peer when the line sits in our write-back
    // queue, or when our own transaction for it has already won the
    // bus (awaitingData). A merely-queued transaction of ours does
    // NOT retry -- otherwise two racing requesters would retry each
    // other forever; the one that combines first wins, the other
    // backs off.
    if (!blind && (wbq_.find(line) || findPendingSnarf(line))) {
        resp.retry = true;
        return resp;
    }
    if (const Mshr *m = mshrs_.find(line)) {
        if (m->awaitingData && !blind) {
            resp.retry = true;
            return resp;
        }
        // Our request lost the race; it will be retried/serviced
        // against the peer's installed copy later. Respond from the
        // tags below (nothing valid yet).
    }

    const TagEntry *entry = tags_.peek(line);
    return entry ? protocol::l2Snoop(entry->state, req.cmd) : resp;
}

Tick
L2Cache::scheduleSupply(const BusRequest &req, Tick combine_time)
{
    const unsigned slice =
        (req.lineAddr / params_.lineSize) % params_.slices;
    Tick start = std::max(combine_time, sliceFree_[slice]);
    sliceFree_[slice] = start + params_.supplyOccupancy;
    return start + params_.supplyLatency;
}

// --------------------------------------------- combined / data side

void
L2Cache::observeCombined(const BusRequest &req, const CombinedResult &res)
{
    const Addr line = req.lineAddr;
    const bool own = req.requester == id_;
    const bool effective = res.resp != CombinedResp::Retry;

    // ---- Observations every L2 makes on every transaction ----
    if (policy_.usesSnarf() && effective) {
        if (isWriteBack(req.cmd)) {
            snarfTable_->recordWriteBack(line);
        } else if (req.cmd == BusCmd::Read
                   || req.cmd == BusCmd::ReadExcl) {
            snarfTable_->recordMiss(line);
        }
    }
    if (policy_.globalWbhtAllocation() && req.cmd == BusCmd::WbClean
        && effective && res.l3HasLine) {
        wbht_->recordL3Valid(line);
    }

    if (!own) {
        if (!effective)
            return;

        if (isWriteBack(req.cmd)) {
            // Did we win the snarf arbitration?
            if (res.resp == CombinedResp::WbSnarfed
                && res.source == id_) {
                // Reserve the victim now (clean by construction, per
                // snarfVictimAvailable) so the slot is very likely
                // still there at data arrival.
                TagEntry *victim = tags_.findVictimAmong(
                    line,
                    [](const TagEntry &e) { return !e.valid(); });
                if (!victim && policy_.snarfSharedVictims) {
                    // LRU Shared way (mirrors snarfVictimAvailable).
                    victim = tags_.findVictimAmong(
                        line, [](const TagEntry &e) {
                            return e.state == LineState::Shared;
                        });
                }
                if (victim && victim->valid()) {
                    if (oracle_)
                        oracle_->onDropCopy(id_, tags_.lineOf(victim),
                                            curTick());
                    tags_.invalidate(victim);
                }
                cmp_assert(!findPendingSnarf(line),
                           "second snarf reservation for a line");
                pendingSnarfs_.push_back(
                    PendingSnarf{line, req.cmd == BusCmd::WbDirty,
                                 res.otherSharers});
            }
            return;
        }

        // A snarf reservation cannot coexist with an effective peer
        // demand: our snoop retries demands while one is pending, and
        // the ring snoops and combines atomically per transaction.
        // (Unless the wb_blind_spot fault hid the reservation -- then
        // reaching this state *is* the injected bug, left for the
        // conformance oracle to flag at the stale supply.)
        cmp_assert(!findPendingSnarf(line)
                       || (faults_ && faults_->wbBlindSpot(curTick())),
                   "effective peer demand with a snarf reservation");

        // Apply our state transition.
        TagEntry *entry = tags_.lookup(line, /*touch=*/false);
        if (!entry)
            return;
        const LineState before = entry->state;
        entry->state = protocol::l2AfterSnoop(before, req.cmd);
        if (res.resp == CombinedResp::L2Data && res.source == id_) {
            ++interventionsSupplied_;
            if (entry->snarfed && !entry->snarfUsedIntervention) {
                entry->snarfUsedIntervention = true;
                ++snarfInterventionUse_;
            }
        }
        if (!isValid(entry->state))
            tags_.invalidate(entry);
        return;
    }

    // ---- Reactions to our own transaction ----
    if (isWriteBack(req.cmd)) {
        WbEntry *e = wbq_.findInFlight(line);
        cmp_assert(e != nullptr, "combined response for unknown WB");
        switch (res.resp) {
          case CombinedResp::Retry:
            ++busRetriesSeen_;
            e->inFlight = false;
            ++e->retries;
            // Deterministically staggered backoff: retried write
            // backs from different L2s (and successive retries of
            // the same line) must not re-collide in convoys.
            e->readyAt = curTick() + params_.retryBackoff
                         + 7u * id_ + 13u * (e->retries % 7u);
            scheduleWbDrain();
            return;
          case CombinedResp::WbSquashed:
            ++wbSquashed_;
            if (req.cmd == BusCmd::WbClean && res.l3HasLine
                && policy_.usesWbht()
                && !policy_.globalWbhtAllocation()) {
                wbht_->recordL3Valid(line);
            }
            // The squash drops our queued copy. Unless we refetched
            // the line meanwhile -- installed in the tags already, or
            // still in flight behind a demand MSHR (the self-refetch
            // race) -- that was our last one; the oracle checks a
            // newer version really does survive elsewhere.
            if (oracle_ && !tags_.lookup(line, /*touch=*/false)
                && !mshrs_.find(line))
                oracle_->onLocalSquash(id_, line, curTick());
            wbq_.remove(e);
            return;
          case CombinedResp::WbAcceptL3:
            ++wbAcceptedL3_;
            if (oracle_ && !tags_.lookup(line, /*touch=*/false)
                && !mshrs_.find(line))
                oracle_->onDropCopy(id_, line, curTick());
            wbq_.remove(e);
            return;
          case CombinedResp::WbSnarfed:
            ++wbSnarfedOut_;
            if (oracle_ && !tags_.lookup(line, /*touch=*/false)
                && !mshrs_.find(line))
                oracle_->onDropCopy(id_, line, curTick());
            wbq_.remove(e);
            return;
          default:
            cmp_panic("unexpected WB combined response ",
                      toString(res.resp));
        }
    }

    Mshr *m = mshrs_.find(line);
    cmp_assert(m != nullptr, "combined response for unknown miss");

    switch (res.resp) {
      case CombinedResp::Retry:
        ++busRetriesSeen_;
        m->inService = false;
        ++m->retries;
        // Re-find by address at fire time: the slot may have been
        // recycled for a different line by then.
        eventq().at(
            curTick() + params_.retryBackoff,
            [this, line] {
                Mshr *mm = mshrs_.find(line);
                if (mm && !mm->inService && !mm->awaitingData)
                    tryIssue(mm);
            },
            "l2-retry-backoff");
        return;

      case CombinedResp::Upgraded: {
        TagEntry *entry = tags_.lookup(line);
        if (entry && isValid(entry->state)) {
            entry->state = LineState::Modified;
            // Complete every waiter shortly (ownership granted).
            for (const auto &w : m->waiters) {
                if (w.isStore && oracle_)
                    oracle_->onStore(id_, line, curTick());
                completeWaiter(w, params_.fillLatency);
            }
            missLatency_.sample(
                static_cast<double>(curTick() - m->allocated));
            mshrs_.deallocate(m);
        } else {
            // Lost the line to a racing ReadExcl: refetch with intent
            // to modify.
            m->cmd = BusCmd::ReadExcl;
            m->inService = false;
            tryIssue(m);
        }
        return;
      }

      case CombinedResp::L2Data:
      case CombinedResp::L3Data:
      case CombinedResp::MemData:
        m->awaitingData = true;
        return;

      default:
        cmp_panic("unexpected miss combined response ",
                  toString(res.resp));
    }
}

void
L2Cache::completeWaiter(const MshrWaiter &w, Tick delay)
{
    if (!cpuDone_)
        return;
    const ThreadId tid = w.tid;
    eventq().at(curTick() + delay, [this, tid] { cpuDone_(tid); },
                "l2-cpu-done");
}

void
L2Cache::receiveData(const BusRequest &req, const CombinedResult &res)
{
    handleFill(req, res);
}

void
L2Cache::handleFill(const BusRequest &req, const CombinedResult &res)
{
    const Addr line = req.lineAddr;
    Mshr *m = mshrs_.find(line);
    cmp_assert(m && m->awaitingData, "fill without awaiting MSHR");

    TagEntry *entry = tags_.lookup(line);
    if (!entry) {
        TagEntry *victim;
        if (policy_.wbhtInformedReplacement && wbht_) {
            // Future-work extension: prefer evicting cold lines the
            // WBHT says are already in the L3 (their write back will
            // be aborted; a refetch costs only the L3 latency).
            victim = tags_.findVictimInformed(line, [this](Addr l) {
                return wbht_->table().peek(l) != nullptr;
            });
        } else {
            victim = tags_.findVictim(line);
        }
        if (victim->valid() && protocol::needsWriteBack(victim->state)) {
            if (wbq_.full()) {
                // Hold the fill until a WB slot opens.
                eventq().at(
                    curTick() + 8,
                    [this, req, res] { handleFill(req, res); },
                    "l2-fill-stall");
                return;
            }
            queueWriteBack(tags_.lineOf(victim), victim->state);
        }
        const LineState st = protocol::fillState(
            req.cmd, res.resp, res.otherSharers, res.dirtySource);
        tags_.insert(victim, line, st);
        entry = victim;
    } else if (req.cmd == BusCmd::ReadExcl) {
        // The line appeared while our fetch was in flight (e.g. via a
        // snarf); the combined response already invalidated peers.
        entry->state = LineState::Modified;
    }

    // Complete waiters. Stores can finish only with write permission;
    // otherwise convert the MSHR into an Upgrade and keep them parked.
    // (Member scratch: fills never nest, and the waiters are copied
    // back into the MSHR below without disturbing its capacity.)
    std::vector<MshrWaiter> &stores_pending = storesPendingScratch_;
    stores_pending.clear();
    for (const auto &w : m->waiters) {
        if (w.isStore && !canSilentStore(entry->state)
            && entry->state != LineState::Modified) {
            stores_pending.push_back(w);
            continue;
        }
        if (w.isStore && entry->state == LineState::Exclusive)
            entry->state = LineState::Modified;
        if (w.isStore && oracle_)
            oracle_->onStore(id_, line, curTick());
        completeWaiter(w, params_.fillLatency);
    }
    missLatency_.sample(static_cast<double>(curTick() - m->allocated));

    if (!stores_pending.empty()) {
        m->cmd = BusCmd::Upgrade;
        m->inService = false;
        m->awaitingData = false;
        m->waiters.assign(stores_pending.begin(),
                          stores_pending.end());
        ++upgradeRequests_;
        tryIssue(m);
    } else {
        mshrs_.deallocate(m);
    }
}

void
L2Cache::receiveWriteBack(const BusRequest &req)
{
    // Snarfed data arriving from a peer's write back.
    const Addr line = req.lineAddr;
    PendingSnarf *ps = findPendingSnarf(line);
    cmp_assert(ps != nullptr, "snarf data without reservation");
    const bool dirty = ps->dirty;
    const bool sharers = ps->sharers;
    // Lookups go by line, so the freed buffer takes the last entry.
    *ps = pendingSnarfs_.back();
    pendingSnarfs_.pop_back();

    if (tags_.lookup(line, /*touch=*/false)) {
        // We refetched the line ourselves in the meantime.
        ++snarfedDropped_;
        return;
    }

    TagEntry *victim = tags_.findVictimAmong(
        line, [this](const TagEntry &e) {
            return !e.valid()
                   || (policy_.snarfSharedVictims
                       && e.state == LineState::Shared);
        });
    bool victim_copy_queued = false;
    if (!victim) {
        if (!dirty) {
            // The won (clean) copy has nowhere to go: accounted drop.
            if (oracle_)
                oracle_->onDropCopy(id_, line, curTick());
            ++snarfedDropped_;
            return;
        }
        // Dirty data must not vanish: fall back to a full victim
        // search and, if that victim needs a write back, require a
        // queue slot (else drop and account).
        victim = tags_.findVictim(line);
        if (victim->valid()
            && protocol::needsWriteBack(victim->state)) {
            if (wbq_.full()) {
                if (oracle_)
                    oracle_->onDropCopy(id_, line, curTick());
                ++snarfedDropped_;
                return;
            }
            queueWriteBack(tags_.lineOf(victim), victim->state);
            victim_copy_queued = true;
        }
    } else if (victim->valid()
               && protocol::needsWriteBack(victim->state)
               && isDirty(victim->state)) {
        cmp_panic("snarf victim selection chose a dirty line");
    }

    // A displaced Shared victim is silently dropped (peers very
    // likely hold duplicates); report it so the shadow model follows.
    if (oracle_ && victim->valid() && !victim_copy_queued)
        oracle_->onDropCopy(id_, tags_.lineOf(victim), curTick());
    tags_.insert(victim, line,
                 protocol::snarfFillState(dirty, sharers),
                 policy_.snarfInsert);
    victim->snarfed = true;
    ++snarfedReceived_;
}

} // namespace cmpcache
