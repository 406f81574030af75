/**
 * @file
 * Miss Status Holding Registers: track outstanding L2 misses, coalesce
 * secondary misses to the same line, and remember which hardware
 * threads wait on each fill.
 */

#ifndef CMPCACHE_MEM_MSHR_HH
#define CMPCACHE_MEM_MSHR_HH

#include <vector>

#include "coherence/bus.hh"
#include "common/types.hh"

namespace cmpcache
{

/** A thread reference parked on an MSHR awaiting the fill. */
struct MshrWaiter
{
    ThreadId tid = 0;
    bool isStore = false;
    Tick enqueued = 0;
};

/** One in-flight miss. */
struct Mshr
{
    Addr lineAddr = InvalidAddr;
    /** Strongest request needed: Read, or ReadExcl if any store
     * waits. */
    BusCmd cmd = BusCmd::Read;
    bool inService = false;   ///< request issued, awaiting response
    bool awaitingData = false;///< combined response seen, data pending
    unsigned retries = 0;     ///< times the bus answered Retry
    Tick allocated = 0;
    std::vector<MshrWaiter> waiters;

    bool valid() const { return lineAddr != InvalidAddr; }
};

/**
 * Fixed-capacity MSHR file. Full MSHRs block new misses at the cache
 * (back-pressuring the trace CPUs).
 */
class MshrFile
{
  public:
    /** Waiters each MSHR holds without growing (a generous coalescing
     * depth, reserved up front to keep the steady state
     * allocation-free). */
    static constexpr std::size_t kReservedWaiters = 16;

    explicit MshrFile(unsigned capacity);

    unsigned capacity() const { return capacity_; }
    unsigned inUse() const { return inUse_; }
    bool full() const { return inUse_ >= capacity_; }

    /** Find the MSHR tracking @p line_addr, or nullptr. */
    Mshr *
    find(Addr line_addr)
    {
        // Checked once per reference, hit rarely: scan the dense tag
        // mirror (free slots hold InvalidAddr, which no line address
        // equals) instead of striding across 64-byte Mshr slots.
        if (inUse_ == 0)
            return nullptr;
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] == line_addr)
                return &slots_[i];
        }
        return nullptr;
    }

    /**
     * Allocate an MSHR for @p line_addr (must not already exist, must
     * not be full).
     */
    Mshr *allocate(Addr line_addr, BusCmd cmd, ThreadId tid,
                   bool is_store, Tick now);

    /** Add a coalesced waiter; upgrades Read->ReadExcl for stores that
     * arrive before the request is in service. */
    void addWaiter(Mshr *mshr, ThreadId tid, bool is_store, Tick now);

    /** Release an MSHR after its fill completes. */
    void deallocate(Mshr *mshr);

    /** Iterate over valid MSHRs. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (auto &m : slots_)
            if (m.valid())
                fn(m);
    }

  private:
    unsigned capacity_;
    unsigned inUse_ = 0;
    std::vector<Mshr> slots_;
    /** slots_[i].lineAddr mirror, maintained by allocate/deallocate. */
    std::vector<Addr> tags_;
};

} // namespace cmpcache

#endif // CMPCACHE_MEM_MSHR_HH
