/**
 * @file
 * Private L1 caches (paper Figure 1: Harvard-style I/D per core).
 *
 * The paper's traces are L2-traffic captures, i.e. they sit *below*
 * the L1s, so CmpSystem does not model L1 timing. This module closes
 * the loop for users with raw (pre-L1) reference streams: L1Cache is
 * a functional write-back/write-allocate filter, and L1FilteredSource
 * adapts any raw TraceSource into the L2-traffic stream CmpSystem
 * consumes -- hits are absorbed (their time folded into the next
 * record's gap), misses pass through, and dirty victims emerge as
 * store traffic.
 */

#ifndef CMPCACHE_L1_L1_CACHE_HH
#define CMPCACHE_L1_L1_CACHE_HH

#include <memory>
#include <string>

#include "common/circular_buffer.hh"
#include "mem/tag_array.hh"
#include "trace/trace.hh"

namespace cmpcache
{

struct L1Params
{
    std::uint64_t iSizeBytes = 32 * 1024;
    std::uint64_t dSizeBytes = 32 * 1024;
    unsigned assoc = 4;
    unsigned lineSize = 128;
    std::string replPolicy = "lru";
    /** Cycles a filtered L1 hit contributes to the next record's
     * gap (models the time the thread spent on absorbed hits). */
    std::uint32_t hitCycles = 1;
};

/**
 * Functional Harvard L1: reports hit/miss and dirty victims; no
 * timing of its own.
 */
class L1Cache
{
  public:
    explicit L1Cache(const L1Params &p);

    /** Outcome of one reference. */
    struct Result
    {
        bool hit = false;
        /** A dirty victim was evicted by the fill (miss only). */
        bool victimDirty = false;
        Addr victimAddr = InvalidAddr;
    };

    Result access(Addr addr, MemOp op);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t dirtyVictims() const { return dirtyVictims_; }
    double hitRate() const;

    TagArray &dtags() { return dtags_; }
    TagArray &itags() { return itags_; }

  private:
    L1Params params_;
    TagArray itags_;
    TagArray dtags_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t dirtyVictims_ = 0;
};

/**
 * TraceSource adapter: raw per-thread references in, L2 traffic out.
 *
 * Like every TraceSource, this runs purely at trace time: next() must
 * not schedule events, touch an EventQueue, or read the simulated
 * clock.
 */
class L1FilteredSource : public TraceSource
{
  public:
    L1FilteredSource(std::unique_ptr<TraceSource> raw,
                     const L1Params &p);

    bool next(TraceRecord &rec) override;

    const L1Cache &l1() const { return l1_; }

  private:
    std::unique_ptr<TraceSource> raw_;
    L1Cache l1_;
    std::uint32_t hitCycles_;
    /** Dirty victims awaiting emission as store traffic. */
    CircularBuffer<TraceRecord> pending_;
    std::uint64_t accumulatedGap_ = 0;
};

/** Filter every thread of a bundle through private L1s. */
TraceBundle filterThroughL1(TraceBundle raw, const L1Params &p);

} // namespace cmpcache

#endif // CMPCACHE_L1_L1_CACHE_HH
