/**
 * @file
 * The L2 cache controller.
 *
 * One L2 is shared by two cores (four hardware threads) and is a
 * point of coherence: it snoops the address ring, sources
 * interventions, issues write backs for every valid victim (the
 * baseline policy), and hosts the paper's two adaptive mechanisms:
 * the Write Back History Table (selective clean write backs) and the
 * snarf table / snarf-accept logic (L2-to-L2 write backs).
 */

#ifndef CMPCACHE_L2_L2_CACHE_HH
#define CMPCACHE_L2_L2_CACHE_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coherence/protocol.hh"
#include "common/inplace_function.hh"
#include "core/policy.hh"
#include "core/retry_monitor.hh"
#include "core/snarf_table.hh"
#include "core/wbht.hh"
#include "mem/mshr.hh"
#include "mem/tag_array.hh"
#include "mem/write_back_queue.hh"
#include "ring/ring.hh"
#include "sim/sim_object.hh"
#include "trace/trace.hh"

namespace cmpcache
{

class FaultInjector;
class VersionOracle;

/** Structural and timing parameters of one L2 cache. */
struct L2Params
{
    std::uint64_t sizeBytes = 2 * 1024 * 1024; ///< 4 slices x 512 KB
    unsigned assoc = 8;
    unsigned lineSize = 128;
    unsigned slices = 4;

    Tick hitLatency = 20;    ///< load-to-use on an L2 hit
    Tick supplyLatency = 23; ///< array access when sourcing data
    Tick supplyOccupancy = 8;///< slice bank busy time per supply
    Tick fillLatency = 10;   ///< data arrival -> waiter completion
    Tick wbhtLookupDelay = 4;///< extra WB-queue residency for lookup
    Tick retryBackoff = 40;  ///< wait after a Retry combined response
    unsigned mshrs = 32;
    unsigned wbqDepth = 8;
};

class L2Cache : public SimObject, public BusAgent
{
  public:
    /** Outcome of a CPU-side access. */
    enum class AccessResult
    {
        Hit,     ///< completes after hitLatency; no slot consumed
        Miss,    ///< outstanding-miss slot consumed; callback later
        Blocked, ///< resources full; retry the access later
    };

    L2Cache(stats::Group *parent, EventQueue &eq, const std::string &name,
            AgentId id, const L2Params &p,
            const PolicyConfig &policy, Ring &ring,
            RetryMonitor *retry_monitor);

    /** CPU-side access from a hardware thread. */
    AccessResult access(ThreadId tid, Addr addr, MemOp op);

    /** Invoked when an outstanding miss of @p tid completes. Stored
     * inline (no allocation); captures are limited to a few words. */
    using CompletionCallback = InplaceFunction<void(ThreadId), 32>;
    void setCompletionCallback(CompletionCallback cb)
    {
        cpuDone_ = std::move(cb);
    }

    /** Oracle used to score WBHT decisions (peeks the real L3). */
    using L3PeekFn = InplaceFunction<bool(Addr), 32>;
    void setL3Peek(L3PeekFn fn)
    {
        l3Peek_ = std::move(fn);
    }

    /**
     * Install the fault injector (null disables injection). The L2
     * consults it for the table-disable faults: DisableWbht forces
     * baseline write-back behaviour, DisableSnarf stops both snarf
     * flagging and snarf-accept offers while the window is open.
     */
    void setFaultInjector(FaultInjector *f) { faults_ = f; }

    /**
     * Conformance oracle (check.oracle; null disables reporting).
     * The L2 reports committed stores and every locally decided copy
     * drop -- losses the combined response cannot see (snarf-victim
     * reservations, dropped snarf data, WBHT aborts, write backs
     * resolving after the line was refetched).
     */
    void setConformance(VersionOracle *o) { oracle_ = o; }

    // BusAgent interface
    AgentId agentId() const override { return id_; }
    SnoopResponse snoop(const BusRequest &req) override;
    void observeCombined(const BusRequest &req,
                         const CombinedResult &res) override;
    Tick scheduleSupply(const BusRequest &req, Tick combine_time)
        override;
    void receiveData(const BusRequest &req,
                     const CombinedResult &res) override;
    void receiveWriteBack(const BusRequest &req) override;

    // Introspection (tests, experiment harness)
    TagArray &tags() { return tags_; }
    const L2Params &params() const { return params_; }
    WriteBackHistoryTable *wbht() { return wbht_.get(); }
    const WriteBackHistoryTable *wbht() const { return wbht_.get(); }
    SnarfTable *snarfTable() { return snarfTable_.get(); }
    const SnarfTable *snarfTable() const { return snarfTable_.get(); }
    const PolicyConfig &policy() const { return policy_; }

    std::uint64_t demandAccesses() const { return accesses_.value(); }
    std::uint64_t demandHits() const { return hits_.value(); }
    double hitRate() const;
    std::uint64_t wbIssued() const { return wbIssued_.value(); }
    std::uint64_t wbSnarfedOutCount() const
    {
        return wbSnarfedOut_.value();
    }
    std::uint64_t wbAbortedByWbht() const
    {
        return wbAbortedByWbht_.value();
    }
    std::uint64_t snarfedReceived() const
    {
        return snarfedReceived_.value();
    }
    std::uint64_t snarfedUsedLocally() const
    {
        return snarfLocalUse_.value();
    }
    std::uint64_t snarfedUsedForIntervention() const
    {
        return snarfInterventionUse_.value();
    }

    // Watchdog / diagnostics
    const WriteBackQueue &writeBackQueue() const { return wbq_; }
    MshrFile &mshrFile() { return mshrs_; }
    /** Snarf wins still awaiting their data, one snarf buffer each
     * (invariant checker: must be zero once the machine has
     * quiesced). */
    std::size_t pendingSnarfCount() const
    {
        return pendingSnarfs_.size();
    }
    /** TEST ONLY: forge a dangling snarf reservation so the
     * invariant checker's negative path can be exercised. */
    void forgePendingSnarfForTest(Addr line)
    {
        pendingSnarfs_.push_back(PendingSnarf{tags_.lineAlign(line)});
    }
    /** Write backs resolved one way or another (forward-progress
     * signal: accepted by the L3, squashed, snarfed out, or aborted
     * by the WBHT). */
    std::uint64_t wbCompleted() const
    {
        return wbAcceptedL3_.value() + wbSquashed_.value()
               + wbSnarfedOut_.value() + wbAbortedByWbht_.value();
    }

  private:
    void tryIssue(Mshr *mshr);
    void scheduleWbDrain();
    void drainWriteBacks();
    void handleFill(const BusRequest &req, const CombinedResult &res);
    void completeWaiter(const MshrWaiter &w, Tick delay);
    /** Push a victim into the WB queue (caller checked capacity). */
    void queueWriteBack(Addr line, LineState state);
    /** Can the snarf algorithm find space for @p addr here? */
    bool snarfVictimAvailable(Addr addr);
    bool wbhtDecisionsActive() const;

    AgentId id_;
    L2Params params_;
    PolicyConfig policy_;
    Ring &ring_;
    RetryMonitor *retryMonitor_;
    FaultInjector *faults_ = nullptr;
    VersionOracle *oracle_ = nullptr;

    TagArray tags_;
    MshrFile mshrs_;
    WriteBackQueue wbq_;
    std::unique_ptr<WriteBackHistoryTable> wbht_;
    std::unique_ptr<SnarfTable> snarfTable_;

    CompletionCallback cpuDone_;
    L3PeekFn l3Peek_;

    /** A snarfed line won on the bus, awaiting its data. */
    struct PendingSnarf
    {
        Addr lineAddr = InvalidAddr;
        bool dirty = false;
        /** Clean sharers existed at combine time (Tagged install). */
        bool sharers = false;
    };
    /** The snarf buffers in use: at most policy.snarfBuffers entries
     * (reserved up front), scanned like the write-back queue. */
    std::vector<PendingSnarf> pendingSnarfs_;
    PendingSnarf *
    findPendingSnarf(Addr line)
    {
        for (auto &p : pendingSnarfs_) {
            if (p.lineAddr == line)
                return &p;
        }
        return nullptr;
    }

    /** Reused fill-time buffer for waiters parked on an upgrade. */
    std::vector<MshrWaiter> storesPendingScratch_;

    /** Per-slice bank availability for sourcing data. */
    std::vector<Tick> sliceFree_;

    /** A drainWriteBacks() callback is posted and has not run. */
    bool wbDrainPending_ = false;

    // --- statistics ---
    stats::Scalar accesses_;
    stats::Scalar loads_;
    stats::Scalar stores_;
    stats::Scalar hits_;
    stats::Scalar misses_;
    stats::Scalar upgradeRequests_;
    stats::Scalar coalescedMisses_;
    stats::Scalar blockedMshr_;
    stats::Scalar blockedWbq_;
    stats::Scalar busRetriesSeen_;
    stats::Histogram missLatency_;

    stats::Scalar wbEnqueued_;
    stats::Scalar wbIssued_;
    stats::Scalar wbIssuedClean_;
    stats::Scalar wbIssuedDirty_;
    stats::Scalar wbAbortedByWbht_;
    stats::Scalar wbSquashed_;
    stats::Scalar wbSnarfedOut_;
    stats::Scalar wbAcceptedL3_;

    stats::Scalar interventionsSupplied_;
    stats::Scalar snarfedReceived_;
    stats::Scalar snarfedDropped_;
    stats::Scalar snarfLocalUse_;
    stats::Scalar snarfInterventionUse_;

    // Instantaneous occupancy gauges (sampler probes).
    stats::Formula wbqDepthNow_;
    stats::Formula mshrOccupancyNow_;
    stats::Formula wbhtGateNow_;
};

} // namespace cmpcache

#endif // CMPCACHE_L2_L2_CACHE_HH
