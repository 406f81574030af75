/** @file Unit tests for the LRU replacement state. */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "mem/replacement.hh"

using namespace cmpcache;

TEST(Lru, VictimIsLeastRecentlyTouched)
{
    LruPolicy lru;
    lru.init(1, 4);
    for (unsigned w = 0; w < 4; ++w)
        lru.insert(0, w, InsertPos::Mru);
    lru.touch(0, 0); // order now: 1 (oldest), 2, 3, 0
    EXPECT_EQ(lru.victim(0, allWaysMask(4)), 1u);
    lru.touch(0, 1);
    EXPECT_EQ(lru.victim(0, allWaysMask(4)), 2u);
}

TEST(Lru, LruInsertGoesColdest)
{
    LruPolicy lru;
    lru.init(1, 4);
    for (unsigned w = 0; w < 4; ++w)
        lru.insert(0, w, InsertPos::Mru);
    lru.insert(0, 2, InsertPos::Lru);
    EXPECT_EQ(lru.victim(0, allWaysMask(4)), 2u);
}

TEST(Lru, RestrictedCandidates)
{
    LruPolicy lru;
    lru.init(1, 4);
    for (unsigned w = 0; w < 4; ++w)
        lru.insert(0, w, InsertPos::Mru); // 0 oldest
    EXPECT_EQ(lru.victim(0, WayMask{0b1100}), 2u); // ways 2 and 3
}

TEST(Lru, SetsAreIndependent)
{
    LruPolicy lru;
    lru.init(2, 2);
    lru.insert(0, 0, InsertPos::Mru);
    lru.insert(0, 1, InsertPos::Mru);
    lru.insert(1, 0, InsertPos::Mru);
    lru.insert(1, 1, InsertPos::Mru);
    lru.touch(0, 0);
    // Set 1 is unaffected by set 0's touch.
    EXPECT_EQ(lru.victim(1, allWaysMask(2)), 0u);
    EXPECT_EQ(lru.victim(0, allWaysMask(2)), 1u);
}

TEST(Lru, RankReflectsRecency)
{
    LruPolicy lru;
    lru.init(1, 4);
    for (unsigned w = 0; w < 4; ++w)
        lru.insert(0, w, InsertPos::Mru);
    EXPECT_EQ(lru.rank(0, 0), 0u); // oldest
    EXPECT_EQ(lru.rank(0, 3), 3u); // newest
    lru.touch(0, 0);
    EXPECT_EQ(lru.rank(0, 0), 3u);
}

// Property: the chosen victim is always among the candidates.
TEST(Lru, VictimAlwaysACandidate)
{
    LruPolicy lru;
    lru.init(8, 8);
    Rng rng(77);
    for (int i = 0; i < 2000; ++i) {
        const unsigned set = static_cast<unsigned>(rng.below(8));
        WayMask cands = 0;
        for (unsigned w = 0; w < 8; ++w)
            if (rng.chance(0.5))
                cands |= WayMask{1} << w;
        if (!cands)
            cands = WayMask{1} << rng.below(8);
        const unsigned v = lru.victim(set, cands);
        EXPECT_TRUE(cands >> v & 1) << "way " << v << " mask " << cands;
        if (rng.chance(0.7))
            lru.touch(set, v);
        else
            lru.insert(set, v,
                       rng.chance(0.5) ? InsertPos::Mru : InsertPos::Lru);
    }
}

TEST(Lru, RenumberStampsKeepsOrderAndZeros)
{
    // Two 4-way sets; zeros are cold ways and stay zero.
    std::vector<std::uint32_t> stamps = {900, 0, 40, 7000, 0, 0, 5, 3};
    EXPECT_EQ(renumberStamps(stamps, 4), 3u);
    EXPECT_EQ(stamps,
              (std::vector<std::uint32_t>{2, 0, 1, 3, 0, 0, 2, 1}));
}

// Two policies take one random sequence of touches and fills; one
// starts just below the clock's top and renumbers part-way through.
// Every victim and rank must agree.
TEST(Lru, ClockWrapChangesNoVictimOrRank)
{
    LruPolicy plain;
    LruPolicy wrapped;
    plain.init(4, 8);
    wrapped.init(4, 8);
    wrapped.setClockForTest(LruPolicy::MaxStamp - 500);
    Rng rng(5);
    for (int i = 0; i < 5000; ++i) {
        const unsigned set = static_cast<unsigned>(rng.below(4));
        const unsigned way = static_cast<unsigned>(rng.below(8));
        const auto roll = rng.below(10);
        for (LruPolicy *lru : {&plain, &wrapped}) {
            if (roll < 5)
                lru->touch(set, way);
            else
                lru->insert(set, way,
                            roll < 8 ? InsertPos::Mru : InsertPos::Lru);
        }
        WayMask cands = rng.below(256);
        if (!cands)
            cands = allWaysMask(8);
        ASSERT_EQ(plain.victim(set, allWaysMask(8)),
                  wrapped.victim(set, allWaysMask(8)))
            << "step " << i;
        ASSERT_EQ(plain.victim(set, cands), wrapped.victim(set, cands))
            << "step " << i;
        for (unsigned st = 0; st < 4; ++st) {
            for (unsigned w = 0; w < 8; ++w)
                ASSERT_EQ(plain.rank(st, w), wrapped.rank(st, w))
                    << "step " << i << " set " << st << " way " << w;
        }
    }
    EXPECT_LT(wrapped.clock(), plain.clock()) << "the clock never wrapped";
}
