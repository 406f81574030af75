#include "mem/replacement.hh"

namespace cmpcache
{

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

} // namespace cmpcache
