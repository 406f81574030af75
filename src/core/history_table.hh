/**
 * @file
 * The set-associative tag history table underlying both of the
 * paper's adaptive mechanisms.
 *
 * "The proposed selective write back mechanism uses a small lookup
 *  table [...] organized and accessed just like a cache tag array."
 *
 * The table stores only line tags (no data), is managed LRU within
 * each set, and carries one optional payload bit per entry (the snarf
 * table's "use bit"). The default geometry matches the paper: 32 K
 * entries, 16-way.
 *
 * An entry costs 12 bytes: its line tag and one 32-bit word packing a
 * 31-bit LRU clock with the use bit. Before the clock would pass
 * 2^31 - 1, each set's non-zero clocks are renumbered 1..k in order
 * (renumberStamps), so victims never see the wrap.
 */

#ifndef CMPCACHE_CORE_HISTORY_TABLE_HH
#define CMPCACHE_CORE_HISTORY_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace cmpcache
{

class HistoryTable
{
  public:
    /**
     * @param num_entries  total entries (power of two)
     * @param assoc        associativity (divides num_entries)
     * @param line_size    cache line size for address alignment
     * @param protect_used prefer evicting entries whose use bit is
     *        clear; entries with demonstrated reuse survive the
     *        allocation churn of unproven lines (the snarf table
     *        enables this, the WBHT does not use payload bits)
     */
    HistoryTable(std::uint64_t num_entries, unsigned assoc,
                 unsigned line_size, bool protect_used = false);

    std::uint64_t numEntries() const
    {
        return static_cast<std::uint64_t>(numSets_) * assoc_;
    }
    unsigned assoc() const { return assoc_; }
    unsigned numSets() const { return numSets_; }

    /**
     * Is the line present?
     * @param touch refresh the entry's LRU position on hit
     */
    bool contains(Addr addr, bool touch = true);

    /** Present with the payload ("use") bit set? */
    bool useBitSet(Addr addr, bool touch = true);

    /**
     * Insert the line (LRU-evicting within its set if needed). An
     * existing entry is refreshed; its use bit is left untouched.
     * @return true if the insertion evicted a valid entry
     */
    bool allocate(Addr addr);

    /** Set the payload bit if the line is present.
     * @return true if the entry existed */
    bool markUsed(Addr addr);

    /** Drop the line if present. @return true if it existed */
    bool erase(Addr addr);

    /** Number of currently valid entries (O(size); tests/analysis). */
    std::uint64_t countValid() const;

    /** Remove every entry. */
    void clear();

    /** Same geometry, entries, use bits and LRU stamps. */
    bool operator==(const HistoryTable &) const = default;

    /** The largest clock; the table renumbers instead of passing it. */
    static constexpr std::uint32_t MaxClock = (std::uint32_t{1} << 31) - 1;

    /** The last clock value handed out. */
    std::uint32_t clock() const { return clock_; }

    /** Jump the clock forward to @p clock (at most MaxClock), so a
     * test reaches the renumbering without 2^31 accesses. */
    void setClockForTest(std::uint32_t clock);

  private:
    static constexpr std::size_t npos = ~std::size_t{0};

    /** The next clock value, renumbering first if the clock is at
     * MaxClock. */
    std::uint32_t nextClock();
    /** Move entry @p i to MRU, keeping its use bit. */
    void refresh(std::size_t i);

    /** Entry index of @p addr's line, or npos. */
    std::size_t find(Addr addr) const;
    unsigned setOf(Addr line) const;

    unsigned assoc_;
    unsigned lineShift_;
    unsigned numSets_;
    bool protectUsed_;
    std::uint32_t clock_ = 0;
    // Structure-of-arrays: find() is called a couple of times per
    // simulated reference and only needs the tags, so keeping them
    // densely packed (a 16-way set spans two cache lines instead of
    // six) matters more than entry locality. InvalidAddr tags mark
    // free slots; a line-aligned probe can never equal it.
    //
    // stamp_ packs (clock << 1) | useBit: a set's non-zero clocks are
    // distinct, so ordering packed stamps orders clocks, and the
    // victim scan touches one array instead of two.
    std::vector<Addr> tag_;
    std::vector<std::uint32_t> stamp_;
};

} // namespace cmpcache

#endif // CMPCACHE_CORE_HISTORY_TABLE_HH
