#include "core/history_table.hh"

#include "common/intmath.hh"
#include "common/logging.hh"
#include "mem/replacement.hh"

namespace cmpcache
{

HistoryTable::HistoryTable(std::uint64_t num_entries, unsigned assoc,
                           unsigned line_size, bool protect_used)
    : assoc_(assoc),
      lineShift_(floorLog2(line_size)),
      protectUsed_(protect_used)
{
    cmp_assert(isPowerOf2(line_size), "line size must be 2^k");
    cmp_assert(assoc > 0 && num_entries % assoc == 0,
               "entries must divide into full sets");
    const std::uint64_t sets = num_entries / assoc;
    cmp_assert(isPowerOf2(sets), "history table sets must be 2^k (",
               num_entries, " entries / ", assoc, "-way)");
    numSets_ = static_cast<unsigned>(sets);
    tag_.assign(num_entries, InvalidAddr);
    stamp_.assign(num_entries, 0);
}

unsigned
HistoryTable::setOf(Addr line) const
{
    return static_cast<unsigned>((line >> lineShift_) & (numSets_ - 1));
}

std::uint32_t
HistoryTable::nextClock()
{
    if (clock_ == MaxClock) [[unlikely]]
        clock_ = renumberStamps(stamp_, assoc_, 1);
    return ++clock_;
}

void
HistoryTable::refresh(std::size_t i)
{
    const std::uint32_t now = nextClock();
    stamp_[i] = (now << 1) | (stamp_[i] & 1);
}

void
HistoryTable::setClockForTest(std::uint32_t clock)
{
    cmp_assert(clock >= clock_ && clock <= MaxClock,
               "the history-table clock only moves forward, up to ",
               MaxClock);
    clock_ = clock;
}

std::size_t
HistoryTable::find(Addr addr) const
{
    const Addr line = (addr >> lineShift_) << lineShift_;
    const std::size_t base =
        static_cast<std::size_t>(setOf(line)) * assoc_;
    // Free slots hold InvalidAddr, which no line-aligned address can
    // equal, so a plain tag compare suffices.
    for (unsigned w = 0; w < assoc_; ++w) {
        if (tag_[base + w] == line)
            return base + w;
    }
    return npos;
}

bool
HistoryTable::contains(Addr addr, bool touch)
{
    const std::size_t i = find(addr);
    if (i == npos)
        return false;
    if (touch)
        refresh(i);
    return true;
}

bool
HistoryTable::useBitSet(Addr addr, bool touch)
{
    const std::size_t i = find(addr);
    if (i == npos)
        return false;
    if (touch)
        refresh(i);
    return (stamp_[i] & 1) != 0;
}

bool
HistoryTable::allocate(Addr addr)
{
    const Addr line = (addr >> lineShift_) << lineShift_;
    if (const std::size_t i = find(line); i != npos) {
        refresh(i);
        return false;
    }
    const std::size_t base =
        static_cast<std::size_t>(setOf(line)) * assoc_;
    std::size_t victim = npos;
    std::size_t unused_victim = npos;
    for (unsigned w = 0; w < assoc_; ++w) {
        const std::size_t i = base + w;
        if (tag_[i] == InvalidAddr) {
            victim = i;
            unused_victim = i;
            break;
        }
        if (victim == npos || stamp_[i] < stamp_[victim])
            victim = i;
        if (!(stamp_[i] & 1)
            && (unused_victim == npos
                || stamp_[i] < stamp_[unused_victim])) {
            unused_victim = i;
        }
    }
    if (protectUsed_ && unused_victim != npos)
        victim = unused_victim;
    const bool evicted = tag_[victim] != InvalidAddr;
    tag_[victim] = line;
    stamp_[victim] = nextClock() << 1; // use bit clear
    return evicted;
}

bool
HistoryTable::markUsed(Addr addr)
{
    const std::size_t i = find(addr);
    if (i == npos)
        return false;
    stamp_[i] = (nextClock() << 1) | 1;
    return true;
}

bool
HistoryTable::erase(Addr addr)
{
    const std::size_t i = find(addr);
    if (i == npos)
        return false;
    tag_[i] = InvalidAddr;
    stamp_[i] &= ~std::uint32_t{1}; // clear the use bit
    return true;
}

std::uint64_t
HistoryTable::countValid() const
{
    std::uint64_t n = 0;
    for (const Addr t : tag_)
        if (t != InvalidAddr)
            ++n;
    return n;
}

void
HistoryTable::clear()
{
    tag_.assign(tag_.size(), InvalidAddr);
    stamp_.assign(stamp_.size(), 0);
}

} // namespace cmpcache
