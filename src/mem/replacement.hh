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
 * Renumber 32-bit LRU stamps before their clock wraps. In each set of
 * @p ways consecutive stamps, the non-zero stamps become 1..k in
 * their old order; zeros stay zero. The non-zero stamps of a set must
 * be distinct, as a clock that hands out each value once leaves them.
 * Every comparison within a set therefore comes out as before.
 * @return the largest k over all sets: the clock to continue from
 */
std::uint32_t renumberStamps(std::vector<std::uint32_t> &stamps,
                             unsigned ways);

/**
 * True least-recently-used via per-way 32-bit timestamps: a touch or
 * an Mru fill takes the next clock value, an Lru fill stamps 0. Before
 * the clock would wrap, renumberStamps() maps each set's non-zero
 * stamps onto 1..k, so victims, lowest-way ties among zero stamps and
 * rank() never see the wrap. The per-reference methods are defined
 * inline so TagArray's scans inline them.
 */
class LruPolicy
{
  public:
    using Stamp = std::uint32_t;

    /** The largest stamp; the clock renumbers instead of passing it. */
    static constexpr Stamp MaxStamp = ~Stamp{0};

    /** Allocate metadata for @p sets x @p ways. */
    void init(unsigned sets, unsigned ways);

    /** A hit on (set, way). */
    void
    touch(unsigned set, unsigned way)
    {
        const Stamp now = nextStamp();
        stamp_[static_cast<std::size_t>(set) * ways_ + way] = now;
    }

    /** A fill into (set, way). */
    void
    insert(unsigned set, unsigned way, InsertPos pos)
    {
        // Lru insertion lands colder than everything resident.
        const Stamp now = pos == InsertPos::Mru ? nextStamp() : 0;
        stamp_[static_cast<std::size_t>(set) * ways_ + way] = now;
    }

    /**
     * Choose the replacement victim among the ways set in
     * @p candidates (non-zero): the oldest stamp, lowest way on ties.
     */
    unsigned
    victim(unsigned set, WayMask candidates) const
    {
        const Stamp *s = &stamp_[static_cast<std::size_t>(set) * ways_];
        if (candidates == allWaysMask(ways_)) {
            // Full-set scan (the common findVictim case): a plain
            // loop the compiler can unroll, visiting the same ways in
            // the same order as the mask walk below.
            unsigned best = 0;
            Stamp best_stamp = s[0];
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
        Stamp best_stamp = s[best];
        for (WayMask m = candidates & (candidates - 1); m; m &= m - 1) {
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

    /** The last stamp handed out. */
    Stamp clock() const { return clock_; }

    /** Jump the clock forward to @p clock, so a test reaches the
     * renumbering without 2^32 touches. */
    void setClockForTest(Stamp clock);

    bool operator==(const LruPolicy &) const = default;

  private:
    Stamp
    nextStamp()
    {
        // The clock wraps to 0 just past MaxStamp: renumber, then hand
        // out the value above every renumbered stamp. (Testing the
        // increment's result, not the old clock, keeps the fast path
        // to one add and branch.)
        if (++clock_ == 0) [[unlikely]]
            clock_ = renumberStamps(stamp_, ways_) + 1;
        return clock_;
    }

    unsigned ways_ = 0;
    Stamp clock_ = 0;
    std::vector<Stamp> stamp_; // sets x ways
};

} // namespace cmpcache

#endif // CMPCACHE_MEM_REPLACEMENT_HH
