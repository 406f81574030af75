/**
 * @file
 * Differential test for way-mask victim selection: the mask-based
 * LruPolicy::victim() must make exactly the choices the old
 * vector-of-ways interface made, over seeded candidate sets and
 * access histories. Any divergence here would silently change every
 * simulated figure.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "mem/replacement.hh"

using namespace cmpcache;

namespace
{

/** Random non-empty candidate mask over @p ways ways. */
WayMask
randomMask(Rng &rng, unsigned ways)
{
    const WayMask all = allWaysMask(ways);
    WayMask m = rng.next() & all;
    if (!m)
        m = WayMask{1} << rng.below(ways);
    return m;
}

/** Ascending way vector equivalent of @p mask (the legacy argument). */
std::vector<unsigned>
waysOf(WayMask mask)
{
    std::vector<unsigned> v;
    for (WayMask m = mask; m; m &= m - 1)
        v.push_back(static_cast<unsigned>(std::countr_zero(m)));
    return v;
}

} // namespace

/**
 * LRU: replay a random touch/insert history into the policy while
 * mirroring the stamps in the test, then check victim(mask) against
 * the legacy algorithm (linear scan of the ascending candidate
 * vector, strict <, first minimum wins).
 */
TEST(VictimMask, LruMatchesLegacyVectorScan)
{
    constexpr unsigned Sets = 16;
    constexpr unsigned Ways = 8;
    LruPolicy policy;
    policy.init(Sets, Ways);

    std::vector<std::uint64_t> stamp(Sets * Ways, 0);
    std::uint64_t clock = 0;
    Rng rng(42);

    for (int iter = 0; iter < 20000; ++iter) {
        const auto set = static_cast<unsigned>(rng.below(Sets));
        switch (rng.below(3)) {
          case 0: {
            const auto way = static_cast<unsigned>(rng.below(Ways));
            policy.touch(set, way);
            stamp[set * Ways + way] = ++clock;
            break;
          }
          case 1: {
            const auto way = static_cast<unsigned>(rng.below(Ways));
            const InsertPos pos =
                rng.below(4) == 0 ? InsertPos::Lru : InsertPos::Mru;
            policy.insert(set, way, pos);
            stamp[set * Ways + way] =
                pos == InsertPos::Mru ? ++clock : 0;
            break;
          }
          default: {
            const WayMask mask = randomMask(rng, Ways);
            const auto ways = waysOf(mask);
            // Legacy: scan the ascending vector, strict <.
            unsigned expect = ways.front();
            std::uint64_t best = stamp[set * Ways + expect];
            for (const unsigned w : ways) {
                if (stamp[set * Ways + w] < best) {
                    best = stamp[set * Ways + w];
                    expect = w;
                }
            }
            ASSERT_EQ(policy.victim(set, mask), expect)
                << "set " << set << " mask " << mask;
          }
        }
    }
}
