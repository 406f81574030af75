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
