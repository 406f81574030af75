/**
 * @file
 * The set-associative array behind every cache-like structure: the L2
 * and L3 tag arrays (TagArray) and the WBHT and snarf history tables
 * (HistoryArray). The paper's WBHT is "organized and accessed just
 * like a cache tag array"; here it is one.
 *
 * Timing lives in the controllers; the array is purely structural.
 *
 * A way costs its line address in the dense tag array (tags_, the only
 * copy, read through lineOf()), its Entry and a 32-bit LRU stamp
 * (LruPolicy): 16 bytes for an L2/L3 way (4-byte TagEntry), 14 for a
 * history way (2-byte HistoryEntry). Every array runs one victim rule
 * (the first invalid way, else the oldest stamp, lowest way on ties)
 * and one clock wrap (renumberStamps).
 *
 * The whole array lives in this header. The set-scan methods
 * (lookup, peek, findVictim*, anyInSet) are the per-reference hot
 * path: they take predicates as template parameters so controller
 * lambdas inline, and hand the LRU state a 64-bit candidate way mask
 * instead of a heap-allocated index vector. Only cold walks (forEach)
 * keep the type-erased std::function interface.
 */

#ifndef CMPCACHE_MEM_TAG_ARRAY_HH
#define CMPCACHE_MEM_TAG_ARRAY_HH

#include <functional>
#include <vector>

#include "coherence/state.hh"
#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "mem/replacement.hh"

namespace cmpcache
{

/** One L2/L3 way's state; its line is TagArray::lineOf(entry). */
struct TagEntry
{
    LineState state = LineState::Invalid;
    /** Line was installed by snarfing a peer write back. */
    bool snarfed = false;
    /** Snarfed line was already counted as used locally. */
    bool snarfUsedLocal = false;
    /** Snarfed line was already counted as an intervention source. */
    bool snarfUsedIntervention = false;

    /** A fill in state @p s with every snarf bit clear (what
     * TagArray::insert takes). */
    constexpr TagEntry(LineState s = LineState::Invalid) : state(s) {}

    bool valid() const { return isValid(state); }

    bool operator==(const TagEntry &) const = default;
};
static_assert(sizeof(TagEntry) == 4, "a TagEntry packs into 4 bytes");

/**
 * One way of a history table (WBHT, snarf table). The tables store
 * only tags, so an entry is its presence and the snarf table's use
 * bit.
 */
struct HistoryEntry
{
    bool present = false;
    /** The line was missed on again while its entry was present. */
    bool used = false;

    bool valid() const { return present; }

    bool operator==(const HistoryEntry &) const = default;
};
static_assert(sizeof(HistoryEntry) <= 2,
              "a HistoryEntry packs into 2 bytes");

/**
 * A set-associative array of @p Entry ways under LRU replacement.
 * @p Entry is default-constructible as an invalid way, copyable and
 * has valid().
 */
template <typename Entry>
class SetAssocArray
{
  public:
    /**
     * @param size_bytes total capacity (a history table: entries x
     *                   line_size)
     * @param assoc      associativity (<= 64, for way masks)
     * @param line_size  line size in bytes (power of two); a history
     *                   table's granule
     */
    SetAssocArray(std::uint64_t size_bytes, unsigned assoc,
                  unsigned line_size)
        : assoc_(assoc),
          lineSize_(line_size),
          lineShift_(floorLog2(line_size)),
          lineMask_(line_size - 1)
    {
        cmp_assert(isPowerOf2(line_size), "line size must be a power of 2");
        cmp_assert(assoc > 0, "associativity must be positive");
        cmp_assert(assoc <= 64, "way masks support at most 64 ways");
        cmp_assert(size_bytes % (static_cast<std::uint64_t>(assoc)
                                 * line_size) == 0,
                   "capacity must divide evenly into sets");
        const std::uint64_t sets =
            size_bytes / (static_cast<std::uint64_t>(assoc) * line_size);
        // numSets_ and setIndex() are 32 bits wide.
        cmp_assert(isPowerOf2(sets) && sets <= (std::uint64_t{1} << 31),
                   "number of sets must be a power of 2 up to 2^31 (got ",
                   sets, ")");
        numSets_ = static_cast<unsigned>(sets);
        entries_.resize(static_cast<std::size_t>(numSets_) * assoc_);
        tags_.assign(entries_.size(), InvalidAddr);
        lru_.init(numSets_, assoc_);
    }

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }
    unsigned lineSize() const { return lineSize_; }
    std::uint64_t capacityBytes() const
    {
        return static_cast<std::uint64_t>(numSets_) * assoc_ * lineSize_;
    }

    /** Line-align an address. */
    Addr lineAlign(Addr addr) const { return addr & ~lineMask_; }

    /** Set index of an address. */
    unsigned setIndex(Addr addr) const
    {
        return static_cast<unsigned>((addr >> lineShift_)
                                     & (numSets_ - 1));
    }

    /**
     * Look up a line.
     * @param addr  any address within the line
     * @param touch update replacement state on hit
     * @return the entry, or nullptr on miss
     */
    Entry *
    lookup(Addr addr, bool touch = true)
    {
        const Addr line = lineAlign(addr);
        const unsigned set = setIndex(addr);
        const std::size_t base = static_cast<std::size_t>(set) * assoc_;
        // Scan the dense tag array: a 16-way set spans two cache
        // lines. Invalid slots hold InvalidAddr (enforced by
        // invalidate()), which no aligned address equals, so the tag
        // compare alone decides the hit.
        const Addr *tags = &tags_[base];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (tags[w] == line) {
                if (touch)
                    lru_.touch(set, w);
                return &entries_[base + w];
            }
        }
        return nullptr;
    }

    const Entry *
    peek(Addr addr) const
    {
        const Addr line = lineAlign(addr);
        const unsigned set = setIndex(addr);
        const std::size_t base = static_cast<std::size_t>(set) * assoc_;
        const Addr *tags = &tags_[base]; // see lookup()
        for (unsigned w = 0; w < assoc_; ++w) {
            if (tags[w] == line)
                return &entries_[base + w];
        }
        return nullptr;
    }

    /** The line @p e holds; InvalidAddr for an invalid way. */
    Addr
    lineOf(const Entry *e) const
    {
        return tags_[static_cast<std::size_t>(e - entries_.data())];
    }

    /**
     * Pick a victim way for filling @p addr: the LRU way of the set
     * (invalid ways win automatically).
     * The returned entry still holds the victim's old contents.
     */
    Entry *
    findVictim(Addr addr)
    {
        const unsigned set = setIndex(addr);
        auto *base = setBase(set);
        // Invalid ways are free fills.
        for (unsigned w = 0; w < assoc_; ++w) {
            if (!base[w].valid())
                return &base[w];
        }
        return &base[lru_.victim(set, allWaysMask(assoc_))];
    }

    /**
     * Pick a victim restricted to entries satisfying @p pred (e.g.
     * "Invalid or Shared only" for snarfs). Returns nullptr if no way
     * qualifies. @p pred must be stateless with respect to scan order.
     */
    template <typename Pred>
    Entry *
    findVictimAmong(Addr addr, Pred &&pred)
    {
        const unsigned set = setIndex(addr);
        auto *base = setBase(set);
        WayMask cands = 0;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (pred(static_cast<const Entry &>(base[w]))) {
                if (!base[w].valid())
                    return &base[w]; // invalid candidates win outright
                cands |= WayMask{1} << w;
            }
        }
        if (!cands)
            return nullptr;
        return &base[lru_.victim(set, cands)];
    }

    /**
     * Informed victim selection (the paper's future-work replacement
     * extension): among the *colder half* of the set, prefer lines
     * satisfying @p cheap, called with a line address (e.g. "the WBHT
     * says this line is already in the L3, so evicting it is nearly
     * free"). Falls back to findVictim() when nothing cold matches.
     */
    template <typename Pred>
    Entry *
    findVictimInformed(Addr addr, Pred &&cheap)
    {
        const unsigned set = setIndex(addr);
        auto *base = setBase(set);
        // Invalid ways always win.
        for (unsigned w = 0; w < assoc_; ++w) {
            if (!base[w].valid())
                return &base[w];
        }

        // Cheapest victim: a "cheap" line in the colder half of the
        // set, coldest first.
        const Addr *lines = &tags_[static_cast<std::size_t>(set) * assoc_];
        Entry *best = nullptr;
        unsigned best_rank = assoc_;
        for (unsigned w = 0; w < assoc_; ++w) {
            const unsigned r = lru_.rank(set, w);
            if (r < assoc_ / 2 && cheap(lines[w]) && r < best_rank) {
                best_rank = r;
                best = &base[w];
            }
        }
        return best ? best : findVictim(addr);
    }

    /**
     * Install @p addr into @p victim (obtained from findVictim*): the
     * way becomes @p fill, so per-line metadata bits start clear.
     */
    void
    insert(Entry *victim, Addr addr, Entry fill,
           InsertPos pos = InsertPos::Mru)
    {
        cmp_assert(victim != nullptr, "insert into null victim");
        const unsigned set = setIndex(addr);
        const std::size_t base = static_cast<std::size_t>(set) * assoc_;
        const std::size_t slot =
            static_cast<std::size_t>(victim - entries_.data());
        cmp_assert(slot - base < assoc_,
                   "victim belongs to a different set");
        *victim = fill;
        tags_[slot] = lineAlign(addr);
        lru_.insert(set, static_cast<unsigned>(slot - base), pos);
    }

    /** Invalidate an entry (keeps replacement metadata untouched). */
    void
    invalidate(Entry *entry)
    {
        cmp_assert(entry != nullptr, "invalidating null entry");
        // Clearing the line keeps the lookup/peek invariant that a
        // matching line implies a valid entry (no line-aligned address
        // can equal InvalidAddr), so the scans skip the state check.
        *entry = Entry{};
        tags_[static_cast<std::size_t>(entry - entries_.data())] =
            InvalidAddr;
    }

    /** Does the set of @p addr contain an entry satisfying @p pred?
     * (Non-mutating; used by snarf-accept snooping. Entries are
     * visited in ascending way order with early exit on true, so
     * stateful accumulator predicates behave deterministically.) */
    template <typename Pred>
    bool
    anyInSet(Addr addr, Pred &&pred) const
    {
        const unsigned set = setIndex(addr);
        const auto *base = setBase(set);
        for (unsigned w = 0; w < assoc_; ++w) {
            if (pred(base[w]))
                return true;
        }
        return false;
    }

    /** Count valid lines (test/analysis helper; O(capacity)). */
    std::uint64_t
    countValid() const
    {
        std::uint64_t n = 0;
        for (const auto &e : entries_)
            if (e.valid())
                ++n;
        return n;
    }

    /** Visit every way with its line (InvalidAddr when invalid);
     * analysis hooks, cold path. */
    void
    forEach(const std::function<void(Addr line, const Entry &)> &fn) const
    {
        for (std::size_t i = 0; i < entries_.size(); ++i)
            fn(tags_[i], entries_[i]);
    }

    /** The LRU state (tests and analysis). */
    const LruPolicy &lru() const { return lru_; }

    /** Jump the LRU clock forward (see LruPolicy::setClockForTest). */
    void setLruClockForTest(LruPolicy::Stamp clock)
    {
        lru_.setClockForTest(clock);
    }

    /** Same geometry, lines, entries and LRU state. */
    bool operator==(const SetAssocArray &) const = default;

  private:
    Entry *
    setBase(unsigned set)
    {
        return &entries_[static_cast<std::size_t>(set) * assoc_];
    }

    const Entry *
    setBase(unsigned set) const
    {
        return &entries_[static_cast<std::size_t>(set) * assoc_];
    }

    unsigned assoc_;
    unsigned lineSize_;
    unsigned lineShift_;
    Addr lineMask_;
    unsigned numSets_;
    LruPolicy lru_;
    std::vector<Entry> entries_; // numSets x assoc
    /**
     * The line of entries_[i], written only by insert() and
     * invalidate(); an invalidated entry's slot holds InvalidAddr.
     */
    std::vector<Addr> tags_;
};

/** An L2 or L3 cache's tags. */
using TagArray = SetAssocArray<TagEntry>;
/** A WBHT's or snarf table's tags. */
using HistoryArray = SetAssocArray<HistoryEntry>;

} // namespace cmpcache

#endif // CMPCACHE_MEM_TAG_ARRAY_HH
