/**
 * @file
 * The off-chip L3 victim cache controller.
 *
 * The L3 absorbs both clean and dirty L2 victims (no inclusion with
 * the L2s). Its directory is on chip -- so snooping it is free -- but
 * the data arrays are off chip behind a dedicated pathway, giving the
 * 167-cycle load-to-use latency of Table 3. Key protocol behaviours
 * from the paper:
 *
 *  - a clean write back whose line is already valid is *squashed*
 *    (the data-ring transfer is cancelled);
 *  - write backs are *retried* when the incoming data queue of the
 *    target slice is full ("L3-issued retries");
 *  - the L3 retains lines it supplies to read misses (so repeated
 *    evict/miss cycles of the same line keep hitting).
 */

#ifndef CMPCACHE_L3_L3_CACHE_HH
#define CMPCACHE_L3_L3_CACHE_HH

#include <functional>
#include <string>
#include <vector>

#include "mem/tag_array.hh"
#include "ring/ring.hh"
#include "sim/sim_object.hh"

namespace cmpcache
{

struct L3Params
{
    std::uint64_t sizeBytes = 16ull * 1024 * 1024; ///< 4 slices x 4 MB
    unsigned assoc = 16;
    unsigned lineSize = 128;
    unsigned slices = 4;

    Tick accessLatency = 112; ///< data-array access when supplying
    Tick bankOccupancy = 8;   ///< slice busy time per data read
    Tick writeOccupancy = 24; ///< incoming-queue residency per write
    /** Array-write time charged against the slice bank (delays
     * demand reads of the same slice). */
    Tick bankWriteOccupancy = 8;
    /** Queue/directory residency of a *squashed* write back: even a
     * redundant clean write back occupies L3 control resources while
     * it is snooped -- the pressure the WBHT exists to remove. */
    Tick squashOccupancy = 6;
    unsigned wbQueueDepth = 10;///< incoming WB queue entries per slice
};

class L3Cache : public SimObject, public BusAgent
{
  public:
    L3Cache(stats::Group *parent, EventQueue &eq, AgentId id,
            const L3Params &p);

    /** Dirty victims leave through the dedicated memory pathway. */
    void setMemWriteFn(std::function<void()> fn)
    {
        memWrite_ = std::move(fn);
    }

    /** Conformance oracle (check.oracle; null disables reporting).
     * The L3 reports its victim disposals: dirty castouts move the
     * shadow version to memory, dropped clean victims are accounted
     * copy losses. */
    void setConformance(VersionOracle *o) { oracle_ = o; }

    /** Oracle peek used by the WBHT scoring and Table 1. */
    bool hasLineValid(Addr addr) const
    {
        return tags_.peek(addr) != nullptr;
    }

    // BusAgent interface
    AgentId agentId() const override { return id_; }
    SnoopResponse snoop(const BusRequest &req) override;
    void observeCombined(const BusRequest &req,
                         const CombinedResult &res) override;
    Tick scheduleSupply(const BusRequest &req, Tick combine_time)
        override;
    void receiveWriteBack(const BusRequest &req) override;

    TagArray &tags() { return tags_; }
    const L3Params &params() const { return params_; }

    std::uint64_t loadHits() const { return loadHits_.value(); }

    /** Load misses served beyond the L2s (interventions excluded), by
     * the L3 or by memory: the paper's "L3 Load Hit Rate" is served /
     * (served + to memory). */
    std::uint64_t loadsServed() const { return loadsServed_.value(); }
    std::uint64_t loadsToMemory() const { return loadsToMemory_.value(); }
    std::uint64_t retriesIssued() const
    {
        return retriesIssued_.value();
    }
    std::uint64_t supplies() const { return supplies_.value(); }
    std::uint64_t cleanWbSeen() const { return cleanWbSeen_.value(); }
    std::uint64_t cleanWbAlreadyValid() const
    {
        return cleanWbAlreadyValid_.value();
    }

    /** Occupied incoming-queue entries across slices (watchdog
     * diagnostics). */
    unsigned incomingBusy() const
    {
        unsigned n = 0;
        for (const auto b : wbQueueBusy_)
            n += b;
        return n;
    }

  private:
    /**
     * Claim incoming-queue resources for a snooped write back.
     * @param squash short control-path occupancy only
     * @return false (and count a retry) when the slice queue is full
     */
    bool reserveQueueSlot(const BusRequest &req, bool squash);

    unsigned sliceOf(Addr line) const
    {
        return static_cast<unsigned>((line / params_.lineSize)
                                     % params_.slices);
    }

    AgentId id_;
    L3Params params_;
    TagArray tags_;

    std::function<void()> memWrite_;
    VersionOracle *oracle_ = nullptr;

    /** Occupied incoming-queue entries per slice. */
    std::vector<unsigned> wbQueueBusy_;
    /** Reservation made during snoop of the current transaction. */
    std::uint64_t reservedTxn_ = 0;
    unsigned reservedSlice_ = 0;
    bool haveReservation_ = false;

    std::vector<Tick> bankFree_;

    stats::Scalar loadLookups_;
    stats::Scalar loadHits_;
    stats::Scalar loadsServed_;
    stats::Scalar loadsToMemory_;
    stats::Scalar storeLookups_;
    stats::Scalar storeHits_;
    stats::Scalar supplies_;
    stats::Scalar cleanWbSeen_;
    stats::Scalar cleanWbAlreadyValid_;
    stats::Scalar dirtyWbSeen_;
    stats::Scalar wbAbsorbed_;
    stats::Scalar retriesIssued_;
    stats::Scalar invalidations_;
    stats::Scalar victimsToMemory_;
    stats::Scalar victimsDropped_;
    /** Occupied incoming-queue entries across slices (sampler
     * probe). */
    stats::Formula incomingQueueBusyNow_;
};

} // namespace cmpcache

#endif // CMPCACHE_L3_L3_CACHE_HH
