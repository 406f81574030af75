#include "mem/tag_array.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace cmpcache
{

template <typename Entry>
SetAssocArray<Entry>::SetAssocArray(std::uint64_t size_bytes,
                                    unsigned assoc, unsigned line_size)
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

// insert() and invalidate() stay out of line: inlined into every
// caller they made bench/hotpath's tag-victim loop slower.
template <typename Entry>
void
SetAssocArray<Entry>::insert(Entry *victim, Addr addr, Entry fill,
                             InsertPos pos)
{
    cmp_assert(victim != nullptr, "insert into null victim");
    const Addr line = lineAlign(addr);
    const unsigned set = setIndex(addr);
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    const std::size_t slot =
        static_cast<std::size_t>(victim - entries_.data());
    cmp_assert(slot - base < assoc_,
               "victim belongs to a different set");
    *victim = fill;
    tags_[slot] = line;
    lru_.insert(set, static_cast<unsigned>(slot - base), pos);
}

template <typename Entry>
void
SetAssocArray<Entry>::invalidate(Entry *entry)
{
    cmp_assert(entry != nullptr, "invalidating null entry");
    // Clearing the line keeps the lookup/peek invariant that a
    // matching line implies a valid entry (no line-aligned address
    // can equal InvalidAddr), so the scans skip the state check.
    *entry = Entry{};
    tags_[static_cast<std::size_t>(entry - entries_.data())] =
        InvalidAddr;
}

template <typename Entry>
std::uint64_t
SetAssocArray<Entry>::countValid() const
{
    std::uint64_t n = 0;
    for (const auto &e : entries_)
        if (e.valid())
            ++n;
    return n;
}

template <typename Entry>
void
SetAssocArray<Entry>::forEach(
    const std::function<void(Addr line, const Entry &)> &fn) const
{
    for (std::size_t i = 0; i < entries_.size(); ++i)
        fn(tags_[i], entries_[i]);
}

template class SetAssocArray<TagEntry>;
template class SetAssocArray<HistoryEntry>;

} // namespace cmpcache
