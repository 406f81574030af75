#include "l3/l3_cache.hh"

#include <algorithm>

#include "check/version_oracle.hh"
#include "coherence/protocol.hh"
#include "common/logging.hh"

namespace cmpcache
{

L3Cache::L3Cache(stats::Group *parent, EventQueue &eq, AgentId id,
                 const L3Params &p)
    : SimObject(parent, "l3", eq),
      id_(id),
      params_(p),
      tags_(p.sizeBytes, p.assoc, p.lineSize),
      wbQueueBusy_(p.slices, 0),
      bankFree_(p.slices, 0),
      loadLookups_(this, "load_lookups",
                   "directory lookups for Read requests"),
      loadHits_(this, "load_hits", "directory hits for Read requests"),
      loadsServed_(this, "loads_served",
                   "load misses supplied by the L3 data arrays"),
      loadsToMemory_(this, "loads_to_memory",
                     "load misses that fell through to memory"),
      storeLookups_(this, "store_lookups",
                    "directory lookups for ReadExcl requests"),
      storeHits_(this, "store_hits",
                 "directory hits for ReadExcl requests"),
      supplies_(this, "supplies", "lines supplied to L2 misses"),
      cleanWbSeen_(this, "clean_wb_seen",
                   "clean write backs snooped"),
      cleanWbAlreadyValid_(this, "clean_wb_already_valid",
                           "clean write backs already valid here "
                           "(Table 1 numerator)"),
      dirtyWbSeen_(this, "dirty_wb_seen",
                   "dirty write backs snooped"),
      wbAbsorbed_(this, "wb_absorbed", "write backs written into the "
                  "victim cache"),
      retriesIssued_(this, "retries_issued",
                     "write backs refused for lack of queue space"),
      invalidations_(this, "invalidations",
                     "lines invalidated by ReadExcl/Upgrade"),
      victimsToMemory_(this, "victims_to_memory",
                       "dirty L3 victims written to memory"),
      victimsDropped_(this, "victims_dropped",
                      "clean L3 victims dropped"),
      incomingQueueBusyNow_(this, "incoming_queue_busy_now",
                            "occupied incoming-queue entries across "
                            "all slices right now",
                            [this] {
                                unsigned busy = 0;
                                for (const auto b : wbQueueBusy_)
                                    busy += b;
                                return static_cast<double>(busy);
                            })
{
}

SnoopResponse
L3Cache::snoop(const BusRequest &req)
{
    SnoopResponse resp;
    const Addr line = req.lineAddr;
    const bool present = tags_.peek(line) != nullptr;

    switch (req.cmd) {
      case BusCmd::Read:
        ++loadLookups_;
        if (present) {
            ++loadHits_;
            resp.l3Hit = true;
        }
        return resp;

      case BusCmd::ReadExcl:
        ++storeLookups_;
        if (present) {
            ++storeHits_;
            resp.l3Hit = true;
        }
        return resp;

      case BusCmd::Upgrade:
        resp.l3Hit = present;
        return resp;

      case BusCmd::WbClean:
        ++cleanWbSeen_;
        if (present) {
            ++cleanWbAlreadyValid_;
            resp.l3Hit = true; // combined response will squash
            // Even a squashed write back occupies queue/directory
            // resources while it is processed; with the queue full
            // the L3 must retry it like any other write back.
            if (!reserveQueueSlot(req, /*squash=*/true))
                resp.retry = true;
            return resp;
        }
        break;

      case BusCmd::WbDirty:
        ++dirtyWbSeen_;
        resp.l3Hit = present;
        break;
    }

    // Write back needing absorption: reserve an incoming-queue slot
    // if the target slice has room, else signal retry.
    if (reserveQueueSlot(req, /*squash=*/false))
        resp.wbAccept = true;
    else
        resp.retry = true;
    return resp;
}

bool
L3Cache::reserveQueueSlot(const BusRequest &req, bool squash)
{
    const unsigned slice = sliceOf(req.lineAddr);
    if (wbQueueBusy_[slice] >= params_.wbQueueDepth) {
        ++retriesIssued_;
        return false;
    }
    if (squash) {
        // Short control-path occupancy, consumed unconditionally.
        ++wbQueueBusy_[slice];
        eventq().at(
            curTick() + params_.squashOccupancy,
            [this, slice] {
                cmp_assert(wbQueueBusy_[slice] > 0,
                           "L3 queue underflow");
                --wbQueueBusy_[slice];
            },
            "l3-squash-release");
        return true;
    }
    // Full absorption: tentatively reserve; observeCombined consumes
    // or releases it depending on the combined outcome.
    reservedTxn_ = req.txnId;
    reservedSlice_ = slice;
    haveReservation_ = true;
    return true;
}

void
L3Cache::observeCombined(const BusRequest &req, const CombinedResult &res)
{
    // Resolve any reservation made while snooping this transaction.
    if (haveReservation_ && reservedTxn_ == req.txnId) {
        haveReservation_ = false;
        if (res.resp == CombinedResp::WbAcceptL3) {
            ++wbQueueBusy_[reservedSlice_];
        }
        // Otherwise (snarfed, squashed, retried elsewhere) the slot
        // is simply not consumed.
    }

    if (res.resp == CombinedResp::Retry)
        return;

    if (req.cmd == BusCmd::Read) {
        if (res.resp == CombinedResp::L3Data)
            ++loadsServed_;
        else if (res.resp == CombinedResp::MemData)
            ++loadsToMemory_;
    }

    // Stores gaining ownership invalidate our copy.
    if (req.cmd == BusCmd::ReadExcl || req.cmd == BusCmd::Upgrade) {
        if (TagEntry *e = tags_.lookup(req.lineAddr, false)) {
            tags_.invalidate(e);
            ++invalidations_;
        }
    }
}

Tick
L3Cache::scheduleSupply(const BusRequest &req, Tick combine_time)
{
    const unsigned slice = sliceOf(req.lineAddr);
    const Tick start = std::max(combine_time, bankFree_[slice]);
    bankFree_[slice] = start + params_.bankOccupancy;
    ++supplies_;
    // Supplying refreshes the line's recency.
    tags_.lookup(req.lineAddr, true);
    return start + params_.accessLatency;
}

void
L3Cache::receiveWriteBack(const BusRequest &req)
{
    const Addr line = req.lineAddr;
    const bool dirty = req.cmd == BusCmd::WbDirty;
    const unsigned slice = sliceOf(line);

    ++wbAbsorbed_;

    // The accepted data has landed: close the oracle's in-flight
    // window for this line (memory-supply tolerance ends here).
    if (oracle_)
        oracle_->onWbArrivedL3(line, dirty, curTick());

    // The array write competes with demand reads for the slice bank.
    bankFree_[slice] =
        std::max(bankFree_[slice], curTick()) + params_.bankWriteOccupancy;

    TagEntry *entry = tags_.lookup(line);
    if (entry) {
        // Rare: the line re-appeared (e.g. dirty WB racing an earlier
        // clean copy). Just refresh the state.
        if (dirty)
            entry->state = LineState::Modified;
    } else {
        TagEntry *victim = tags_.findVictim(line);
        if (victim->valid()) {
            if (isDirty(victim->state)) {
                ++victimsToMemory_;
                if (oracle_)
                    oracle_->onMemoryWrite(id_, tags_.lineOf(victim),
                                           curTick());
                if (memWrite_)
                    memWrite_();
            } else {
                ++victimsDropped_;
                if (oracle_)
                    oracle_->onDropCopy(id_, tags_.lineOf(victim),
                                        curTick());
            }
        }
        tags_.insert(victim, line,
                     dirty ? LineState::Modified : LineState::Shared);
    }

    // Free the incoming-queue slot once the array write completes.
    eventq().at(
        curTick() + params_.writeOccupancy,
        [this, slice] {
            cmp_assert(wbQueueBusy_[slice] > 0, "L3 queue underflow");
            --wbQueueBusy_[slice];
        },
        "l3-write-release");
}

} // namespace cmpcache
