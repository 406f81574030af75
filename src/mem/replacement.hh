/**
 * @file
 * LRU replacement state for set-associative arrays.
 *
 * The array calls touch() on hits, insert() on fills, and victim() to
 * rank replacement candidates. insert() takes an InsertPos so the
 * snarf mechanism can experiment with recipient-side LRU management
 * (the paper calls out "managing the LRU information at the recipient
 * cache" explicitly).
 */

#ifndef CMPCACHE_MEM_REPLACEMENT_HH
#define CMPCACHE_MEM_REPLACEMENT_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace cmpcache
{

/** Where a newly inserted line lands in the recency order. */
enum class InsertPos
{
    Mru, ///< normal fill
    Lru, ///< insert cold (ablation for snarfed lines)
};

/**
 * Candidate ways as a bit mask (bit w = way w eligible). victim()
 * scans candidates in ascending way order, so ties resolve exactly as
 * they did with the old ascending candidate vectors.
 */
using WayMask = std::uint64_t;

/** Mask with the low @p ways bits set (ways <= 64). */
constexpr WayMask
allWaysMask(unsigned ways)
{
    return ways >= 64 ? ~WayMask{0} : (WayMask{1} << ways) - 1;
}

/**
 * True least-recently-used via per-way timestamps. The per-reference
 * methods are defined inline so TagArray's scans inline them.
 */
class LruPolicy
{
  public:
    /** Allocate metadata for @p sets x @p ways. */
    void init(unsigned sets, unsigned ways);

    /** A hit on (set, way). */
    void
    touch(unsigned set, unsigned way)
    {
        stamp_[static_cast<std::size_t>(set) * ways_ + way] = ++clock_;
    }

    /** A fill into (set, way). */
    void
    insert(unsigned set, unsigned way, InsertPos pos)
    {
        auto &s = stamp_[static_cast<std::size_t>(set) * ways_ + way];
        // Lru insertion lands colder than everything resident.
        s = pos == InsertPos::Mru ? ++clock_ : 0;
    }

    /**
     * Choose the replacement victim among the ways set in
     * @p candidates (non-zero): the oldest stamp, lowest way on ties.
     */
    unsigned
    victim(unsigned set, WayMask candidates) const
    {
        const auto *s = &stamp_[static_cast<std::size_t>(set) * ways_];
        if (candidates == allWaysMask(ways_)) {
            // Full-set scan (the common findVictim case): a plain
            // loop the compiler can unroll, visiting the same ways in
            // the same order as the mask walk below.
            unsigned best = 0;
            std::uint64_t best_stamp = s[0];
            for (unsigned w = 1; w < ways_; ++w) {
                if (s[w] < best_stamp) {
                    best_stamp = s[w];
                    best = w;
                }
            }
            return best;
        }
        unsigned best = static_cast<unsigned>(
            std::countr_zero(candidates));
        std::uint64_t best_stamp = MaxTick;
        for (WayMask m = candidates; m; m &= m - 1) {
            const auto w =
                static_cast<unsigned>(std::countr_zero(m));
            if (s[w] < best_stamp) {
                best_stamp = s[w];
                best = w;
            }
        }
        return best;
    }

    /** Recency rank of a way: 0 = LRU ... ways-1 = MRU. */
    unsigned rank(unsigned set, unsigned way) const;

    bool operator==(const LruPolicy &) const = default;

  private:
    unsigned ways_ = 0;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> stamp_; // sets x ways
};

} // namespace cmpcache

#endif // CMPCACHE_MEM_REPLACEMENT_HH
