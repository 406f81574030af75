/** @file Unit tests for the set-associative history table. */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/history_table.hh"

using namespace cmpcache;

TEST(HistoryTable, Geometry)
{
    HistoryTable t(32768, 16, 128);
    EXPECT_EQ(t.numEntries(), 32768u);
    EXPECT_EQ(t.assoc(), 16u);
    EXPECT_EQ(t.numSets(), 2048u);
}

TEST(HistoryTable, AllocateThenContains)
{
    HistoryTable t(64, 4, 128);
    EXPECT_FALSE(t.contains(0x1000));
    t.allocate(0x1000);
    EXPECT_TRUE(t.contains(0x1000));
    EXPECT_TRUE(t.contains(0x1040)); // same line
    EXPECT_FALSE(t.contains(0x1080)); // next line
}

TEST(HistoryTable, UseBitLifecycle)
{
    HistoryTable t(64, 4, 128);
    EXPECT_FALSE(t.markUsed(0x1000)); // not present yet
    t.allocate(0x1000);
    EXPECT_FALSE(t.useBitSet(0x1000));
    EXPECT_TRUE(t.markUsed(0x1000));
    EXPECT_TRUE(t.useBitSet(0x1000));
}

TEST(HistoryTable, ReallocatePreservesUseBit)
{
    HistoryTable t(64, 4, 128);
    t.allocate(0x1000);
    t.markUsed(0x1000);
    EXPECT_FALSE(t.allocate(0x1000)); // refresh, no eviction
    EXPECT_TRUE(t.useBitSet(0x1000));
}

TEST(HistoryTable, LruEvictionWithinSet)
{
    // 8 entries, 4-way -> 2 sets. Lines with the same low index bits
    // collide. Line size 128, so set = (addr >> 7) & 1.
    HistoryTable t(8, 4, 128);
    const Addr base = 0x0; // set 0
    // Fill set 0 with 4 lines: addresses stride 2 lines = 0x100.
    for (int i = 0; i < 4; ++i)
        t.allocate(base + static_cast<Addr>(i) * 0x100);
    // Touch the oldest so it's no longer the LRU.
    EXPECT_TRUE(t.contains(base));
    // Insert a fifth line: evicts the now-oldest (i = 1).
    EXPECT_TRUE(t.allocate(base + 4 * 0x100));
    EXPECT_TRUE(t.contains(base, false));
    EXPECT_FALSE(t.contains(base + 0x100, false));
}

TEST(HistoryTable, EvictedEntryLosesUseBit)
{
    HistoryTable t(4, 2, 128); // 2 sets, 2-way
    const Addr a = 0x000;      // set 0
    const Addr b = 0x100;      // set 0
    const Addr c = 0x200;      // set 0
    t.allocate(a);
    t.markUsed(a);
    t.allocate(b);
    t.allocate(c); // evicts a
    EXPECT_FALSE(t.contains(a, false));
    t.allocate(a); // fresh entry
    EXPECT_FALSE(t.useBitSet(a));
}

TEST(HistoryTable, EraseRemoves)
{
    HistoryTable t(64, 4, 128);
    t.allocate(0x1000);
    EXPECT_TRUE(t.erase(0x1000));
    EXPECT_FALSE(t.contains(0x1000));
    EXPECT_FALSE(t.erase(0x1000));
}

TEST(HistoryTable, CountValidAndClear)
{
    HistoryTable t(64, 4, 128);
    for (Addr a = 0; a < 10 * 128; a += 128)
        t.allocate(a);
    EXPECT_EQ(t.countValid(), 10u);
    t.clear();
    EXPECT_EQ(t.countValid(), 0u);
}

TEST(HistoryTable, ContainsNoTouchLeavesLruAlone)
{
    HistoryTable t(4, 2, 128);
    const Addr a = 0x000;
    const Addr b = 0x100;
    const Addr c = 0x200;
    t.allocate(a);
    t.allocate(b);
    // Peek at `a` without touching; it must still be the LRU victim.
    EXPECT_TRUE(t.contains(a, false));
    t.allocate(c);
    EXPECT_FALSE(t.contains(a, false));
    EXPECT_TRUE(t.contains(b, false));
}

TEST(HistoryTable, CapacityNeverExceeded)
{
    HistoryTable t(128, 8, 128);
    for (Addr a = 0; a < 1000 * 128; a += 128)
        t.allocate(a);
    EXPECT_LE(t.countValid(), 128u);
}

TEST(HistoryTableDeath, BadGeometryPanics)
{
    EXPECT_DEATH(HistoryTable(100, 16, 128), "");
    EXPECT_DEATH(HistoryTable(96, 16, 128), "2\\^k");
}

// Property sweep over table sizes: a working set that fits is fully
// retained; one that does not fit loses entries.
class TableSizeSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TableSizeSweep, RetentionMatchesCapacity)
{
    const std::uint64_t entries = GetParam();
    HistoryTable t(entries, 16, 128);
    // Insert exactly `entries` distinct lines, striding one line.
    for (Addr a = 0; a < entries * 128; a += 128)
        t.allocate(a);
    EXPECT_EQ(t.countValid(), entries);
    std::uint64_t hits = 0;
    for (Addr a = 0; a < entries * 128; a += 128)
        hits += t.contains(a, false);
    EXPECT_EQ(hits, entries); // perfectly retained

    // Doubling the footprint must evict about half.
    for (Addr a = entries * 128; a < 2 * entries * 128; a += 128)
        t.allocate(a);
    EXPECT_EQ(t.countValid(), entries);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TableSizeSweep,
                         ::testing::Values(512u, 1024u, 4096u, 32768u));

TEST(HistoryTable, WrapKeepsLruOrder)
{
    // One 4-way set. A..D take clocks 1..4; with the clock at its top,
    // touching B renumbers them to 1..4 and gives B clock 5.
    HistoryTable t(4, 4, 128);
    const Addr a = 0x000, b = 0x080, c = 0x100, d = 0x180;
    for (const Addr x : {a, b, c, d})
        t.allocate(x);
    t.setClockForTest(HistoryTable::MaxClock);
    EXPECT_TRUE(t.contains(b));
    EXPECT_EQ(t.clock(), 5u);
    // Victims go oldest first: A, C, D, then B.
    t.allocate(0x200);
    EXPECT_FALSE(t.contains(a, false));
    t.allocate(0x280);
    EXPECT_FALSE(t.contains(c, false));
    t.allocate(0x300);
    EXPECT_FALSE(t.contains(d, false));
    EXPECT_TRUE(t.contains(b, false));
    t.allocate(0x380);
    EXPECT_FALSE(t.contains(b, false));
}

// Renumbering at the clock's top must change no answer: one random
// allocate/markUsed/useBitSet/contains/erase sequence goes to a table
// and to a twin whose clock starts just below HistoryTable::MaxClock,
// so it renumbers part-way through. After every step both tables
// also hold the same lines with the same use bits.
class HistoryTableWrap : public ::testing::TestWithParam<bool>
{
};

TEST_P(HistoryTableWrap, RenumberingChangesNoAnswer)
{
    const bool protect_used = GetParam();
    HistoryTable plain(64, 8, 128, protect_used);
    HistoryTable wrapped(64, 8, 128, protect_used);
    wrapped.setClockForTest(HistoryTable::MaxClock - 2000);
    Rng rng(7);
    for (int step = 0; step < 20000; ++step) {
        // Four times the capacity keeps hits and evictions common.
        const Addr a = rng.below(256) * 128;
        const auto roll = rng.below(100);
        const bool touch = rng.chance(0.5);
        if (roll < 40) {
            ASSERT_EQ(plain.allocate(a), wrapped.allocate(a))
                << "step " << step;
        } else if (roll < 60) {
            ASSERT_EQ(plain.markUsed(a), wrapped.markUsed(a))
                << "step " << step;
        } else if (roll < 75) {
            ASSERT_EQ(plain.useBitSet(a, touch), wrapped.useBitSet(a, touch))
                << "step " << step;
        } else if (roll < 90) {
            ASSERT_EQ(plain.contains(a, touch), wrapped.contains(a, touch))
                << "step " << step;
        } else {
            ASSERT_EQ(plain.erase(a), wrapped.erase(a)) << "step " << step;
        }
        for (Addr b = 0; b < 256 * 128; b += 128) {
            ASSERT_EQ(plain.useBitSet(b, false), wrapped.useBitSet(b, false))
                << "step " << step << " line " << b;
            ASSERT_EQ(plain.contains(b, false), wrapped.contains(b, false))
                << "step " << step << " line " << b;
        }
    }
    EXPECT_EQ(plain.countValid(), wrapped.countValid());
    EXPECT_LT(wrapped.clock(), plain.clock()) << "the clock never wrapped";
}

INSTANTIATE_TEST_SUITE_P(UseBits, HistoryTableWrap, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "ProtectUsed" : "LruOnly";
                         });
