#include "mem/replacement.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cmpcache
{

std::uint32_t
renumberStamps(std::vector<std::uint32_t> &stamps, unsigned ways)
{
    std::uint32_t top = 0;
    std::vector<std::uint32_t *> live;
    live.reserve(ways);
    for (std::size_t base = 0; base < stamps.size(); base += ways) {
        live.clear();
        for (unsigned w = 0; w < ways; ++w) {
            if (stamps[base + w])
                live.push_back(&stamps[base + w]);
        }
        std::sort(live.begin(), live.end(),
                  [](const std::uint32_t *a, const std::uint32_t *b) {
                      return *a < *b;
                  });
        std::uint32_t k = 0;
        for (std::uint32_t *s : live)
            *s = ++k;
        top = std::max(top, k);
    }
    return top;
}

void
LruPolicy::init(unsigned sets, unsigned ways)
{
    ways_ = ways;
    stamp_.assign(static_cast<std::size_t>(sets) * ways, 0);
    clock_ = 0;
}

unsigned
LruPolicy::rank(unsigned set, unsigned way) const
{
    const auto mine = stamp_[static_cast<std::size_t>(set) * ways_ + way];
    unsigned r = 0;
    for (unsigned w = 0; w < ways_; ++w) {
        if (w != way
            && stamp_[static_cast<std::size_t>(set) * ways_ + w] < mine) {
            ++r;
        }
    }
    return r;
}

void
LruPolicy::setClockForTest(Stamp clock)
{
    cmp_assert(clock >= clock_, "the LRU clock only moves forward");
    clock_ = clock;
}

} // namespace cmpcache
