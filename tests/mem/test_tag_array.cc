/** @file Unit tests for the set-associative tag array. */

#include <gtest/gtest.h>

#include "mem/tag_array.hh"

using namespace cmpcache;

namespace
{

TagArray
makeArray(std::uint64_t size = 16 * 1024, unsigned assoc = 4,
          unsigned line = 128)
{
    return TagArray(size, assoc, line);
}

} // namespace

TEST(TagArray, GeometryComputed)
{
    auto t = makeArray(16 * 1024, 4, 128);
    EXPECT_EQ(t.numSets(), 32u);
    EXPECT_EQ(t.assoc(), 4u);
    EXPECT_EQ(t.capacityBytes(), 16u * 1024);
}

TEST(TagArray, LineAlign)
{
    auto t = makeArray();
    EXPECT_EQ(t.lineAlign(0x1234), 0x1200u + 0x0u);
    EXPECT_EQ(t.lineAlign(0x1280), 0x1280u);
    EXPECT_EQ(t.lineAlign(0x12ff), 0x1280u);
}

TEST(TagArray, MissThenInsertThenHit)
{
    auto t = makeArray();
    EXPECT_EQ(t.lookup(0x1000), nullptr);
    TagEntry *victim = t.findVictim(0x1000);
    ASSERT_NE(victim, nullptr);
    EXPECT_FALSE(victim->valid());
    t.insert(victim, 0x1000, LineState::Exclusive);
    TagEntry *hit = t.lookup(0x1040); // same line, different offset
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(t.lineOf(hit), 0x1000u);
    EXPECT_EQ(hit->state, LineState::Exclusive);
}

TEST(TagArray, PeekDoesNotTouchLru)
{
    auto t = makeArray(1024, 2, 128); // 4 sets
    // Fill one set with two lines (set stride = 4 * 128 = 512).
    TagEntry *v1 = t.findVictim(0x0);
    t.insert(v1, 0x0, LineState::Shared);
    TagEntry *v2 = t.findVictim(0x200);
    t.insert(v2, 0x200, LineState::Shared);
    // Peek the older line; it must remain the victim.
    EXPECT_NE(t.peek(0x0), nullptr);
    TagEntry *victim = t.findVictim(0x400);
    EXPECT_EQ(t.lineOf(victim), 0x0u);
}

TEST(TagArray, LookupTouchChangesVictim)
{
    auto t = makeArray(1024, 2, 128);
    t.insert(t.findVictim(0x0), 0x0, LineState::Shared);
    t.insert(t.findVictim(0x200), 0x200, LineState::Shared);
    t.lookup(0x0, true); // refresh
    EXPECT_EQ(t.lineOf(t.findVictim(0x400)), 0x200u);
}

TEST(TagArray, InvalidWaysPreferredAsVictims)
{
    auto t = makeArray(1024, 2, 128);
    t.insert(t.findVictim(0x0), 0x0, LineState::Shared);
    TagEntry *victim = t.findVictim(0x200);
    EXPECT_FALSE(victim->valid());
}

TEST(TagArray, EvictionRecyclesEntry)
{
    auto t = makeArray(512, 2, 128); // 2 sets, stride 256
    t.insert(t.findVictim(0x000), 0x000, LineState::Shared);
    t.insert(t.findVictim(0x200), 0x200, LineState::Shared);
    // Third line in the same set evicts the LRU (0x000).
    TagEntry *victim = t.findVictim(0x400);
    EXPECT_EQ(t.lineOf(victim), 0x000u);
    t.insert(victim, 0x400, LineState::Modified);
    EXPECT_EQ(t.lookup(0x000), nullptr);
    EXPECT_NE(t.lookup(0x400), nullptr);
}

TEST(TagArray, InvalidateClearsEverything)
{
    auto t = makeArray();
    TagEntry *v = t.findVictim(0x1000);
    t.insert(v, 0x1000, LineState::Modified);
    v->snarfed = true;
    v->snarfUsedLocal = true;
    t.invalidate(v);
    EXPECT_FALSE(v->valid());
    EXPECT_EQ(t.lineOf(v), InvalidAddr);
    EXPECT_FALSE(v->snarfed);
    EXPECT_FALSE(v->snarfUsedLocal);
    EXPECT_EQ(t.lookup(0x1000), nullptr);
}

TEST(TagArray, InsertResetsMetadataBits)
{
    auto t = makeArray();
    TagEntry *v = t.findVictim(0x1000);
    t.insert(v, 0x1000, LineState::Shared);
    v->snarfed = true;
    // Reuse the same way for a different line.
    t.invalidate(v);
    t.insert(v, 0x2000 + (0x1000 % 4096), v->state = LineState::Shared);
    EXPECT_FALSE(v->snarfed);
}

TEST(TagArray, FindVictimAmongHonorsPredicate)
{
    auto t = makeArray(512, 2, 128);
    TagEntry *a = t.findVictim(0x000);
    t.insert(a, 0x000, LineState::Modified);
    TagEntry *b = t.findVictim(0x200);
    t.insert(b, 0x200, LineState::Shared);
    // Only Shared entries qualify.
    TagEntry *v = t.findVictimAmong(0x400, [](const TagEntry &e) {
        return e.state == LineState::Shared;
    });
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(t.lineOf(v), 0x200u);
    // Nothing qualifies.
    EXPECT_EQ(t.findVictimAmong(0x400,
                                [](const TagEntry &e) {
                                    return e.state
                                           == LineState::Exclusive;
                                }),
              nullptr);
}

TEST(TagArray, FindVictimAmongPrefersInvalid)
{
    auto t = makeArray(512, 2, 128);
    TagEntry *a = t.findVictim(0x000);
    t.insert(a, 0x000, LineState::Shared);
    TagEntry *v = t.findVictimAmong(0x200, [](const TagEntry &e) {
        return !e.valid() || e.state == LineState::Shared;
    });
    ASSERT_NE(v, nullptr);
    EXPECT_FALSE(v->valid());
}

TEST(TagArray, AnyInSet)
{
    auto t = makeArray(512, 2, 128);
    t.insert(t.findVictim(0x000), 0x000, LineState::Shared);
    EXPECT_TRUE(t.anyInSet(0x200, [](const TagEntry &e) {
        return e.state == LineState::Shared;
    }));
    EXPECT_FALSE(t.anyInSet(0x200, [](const TagEntry &e) {
        return e.state == LineState::Modified;
    }));
    // Different set: contains only invalid ways.
    EXPECT_TRUE(t.anyInSet(0x080, [](const TagEntry &e) {
        return !e.valid();
    }));
}

TEST(TagArray, CountValidTracksContents)
{
    auto t = makeArray();
    EXPECT_EQ(t.countValid(), 0u);
    t.insert(t.findVictim(0x0), 0x0, LineState::Shared);
    t.insert(t.findVictim(0x80), 0x80, LineState::Shared);
    EXPECT_EQ(t.countValid(), 2u);
}

TEST(TagArray, ForEachVisitsEverything)
{
    auto t = makeArray(512, 2, 128);
    t.insert(t.findVictim(0x0), 0x0, LineState::Shared);
    unsigned total = 0;
    unsigned valid = 0;
    t.forEach([&](Addr line, const TagEntry &e) {
        ++total;
        valid += e.valid();
        // The line comes along: InvalidAddr exactly for invalid ways.
        EXPECT_EQ(line, e.valid() ? Addr{0x0} : InvalidAddr);
    });
    EXPECT_EQ(total, 4u); // 2 sets x 2 ways
    EXPECT_EQ(valid, 1u);
}

TEST(TagArray, DistinctSetsDoNotConflict)
{
    auto t = makeArray(512, 2, 128); // 2 sets
    // 0x000 and 0x080 map to different sets (line size 128).
    t.insert(t.findVictim(0x000), 0x000, LineState::Shared);
    t.insert(t.findVictim(0x080), 0x080, LineState::Shared);
    EXPECT_NE(t.lookup(0x000), nullptr);
    EXPECT_NE(t.lookup(0x080), nullptr);
    EXPECT_NE(t.setIndex(0x000), t.setIndex(0x080));
}

TEST(TagArrayDeath, BadGeometryPanics)
{
    EXPECT_DEATH(makeArray(1000, 4, 128), "");
    EXPECT_DEATH(makeArray(16 * 1024, 4, 96), "line size");
    EXPECT_DEATH(makeArray(128 * 128, 128, 128), "at most 64 ways");
}

// Property: after inserting N distinct lines into a large-enough
// array, all of them hit.
TEST(TagArray, ManyInsertionsAllHit)
{
    auto t = makeArray(64 * 1024, 8, 128);
    for (Addr a = 0; a < 64 * 1024; a += 128)
        t.insert(t.findVictim(a), a, LineState::Shared);
    EXPECT_EQ(t.countValid(), 512u);
    for (Addr a = 0; a < 64 * 1024; a += 128)
        EXPECT_NE(t.lookup(a), nullptr) << "addr " << a;
}

TEST(TagArrayInformed, PrefersCheapColdLines)
{
    auto t = makeArray(1024, 4, 128); // 2 sets, 4 ways
    // Fill set 0: insertion order makes 0x000 the LRU.
    for (int i = 0; i < 4; ++i)
        t.insert(t.findVictim(0x000),
                 static_cast<Addr>(i) * 0x200, LineState::Shared);
    // "Cheap" = the second-oldest line (rank 1, still in the cold
    // half): informed selection must pick it over the plain LRU.
    TagEntry *v = t.findVictimInformed(0x800, [](Addr line) {
        return line == 0x200;
    });
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(t.lineOf(v), 0x200u);
}

TEST(TagArrayInformed, FallsBackToLruWhenNothingCheapIsCold)
{
    auto t = makeArray(1024, 4, 128);
    for (int i = 0; i < 4; ++i)
        t.insert(t.findVictim(0x000),
                 static_cast<Addr>(i) * 0x200, LineState::Shared);
    // Cheap only matches the MRU line (rank 3, hot half): ignore it.
    TagEntry *v = t.findVictimInformed(0x800, [](Addr line) {
        return line == 0x600;
    });
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(t.lineOf(v), 0x000u); // plain LRU
}

TEST(TagArrayInformed, InvalidWaysStillWin)
{
    auto t = makeArray(1024, 4, 128);
    t.insert(t.findVictim(0x000), 0x000, LineState::Shared);
    TagEntry *v = t.findVictimInformed(
        0x800, [](Addr) { return true; });
    ASSERT_NE(v, nullptr);
    EXPECT_FALSE(v->valid());
}
