/**
 * @file
 * Unit tests for the two history tables, the WBHT and the snarf table:
 * the tags, LRU replacement, use bits and geometry they keep in their
 * HistoryArray, driven through each table the way the simulator
 * drives it, and the array's LRU clock wrap under each table's victim
 * rule.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "core/snarf_table.hh"
#include "core/wbht.hh"
#include "stats/sink.hh"

using namespace cmpcache;

namespace
{

/** A WBHT of @p entries entries, @p assoc-way, over 128 B lines. */
std::unique_ptr<WriteBackHistoryTable>
makeWbht(stats::Group &root, std::uint64_t entries, unsigned assoc)
{
    WriteBackHistoryTable::Params p;
    p.entries = entries;
    p.assoc = assoc;
    p.lineSize = 128;
    return std::make_unique<WriteBackHistoryTable>(&root, p);
}

/** A snarf table of @p entries entries, @p assoc-way, over 128 B
 * lines. */
std::unique_ptr<SnarfTable>
makeSnarf(stats::Group &root, std::uint64_t entries, unsigned assoc)
{
    SnarfTable::Params p;
    p.entries = entries;
    p.assoc = assoc;
    p.lineSize = 128;
    return std::make_unique<SnarfTable>(&root, p);
}

} // namespace

TEST(HistoryTable, Geometry)
{
    // Both tables default to the paper's 32 K entries, 16-way.
    stats::Group root("sys");
    WriteBackHistoryTable wbht(&root, WriteBackHistoryTable::Params{});
    EXPECT_EQ(wbht.table().numSets(), 2048u);
    EXPECT_EQ(wbht.table().assoc(), 16u);
    EXPECT_EQ(wbht.table().lineSize(), 128u);
    SnarfTable snarf(&root, SnarfTable::Params{});
    EXPECT_EQ(snarf.table().numSets(), 2048u);
    EXPECT_EQ(snarf.table().assoc(), 16u);
}

TEST(HistoryTable, AllocateThenContains)
{
    stats::Group root("sys");
    auto w = makeWbht(root, 64, 4);
    EXPECT_FALSE(w->shouldAbort(0x1000, false));
    w->recordL3Valid(0x1000);
    EXPECT_TRUE(w->shouldAbort(0x1000, true));
    EXPECT_TRUE(w->shouldAbort(0x1040, true));  // same line
    EXPECT_FALSE(w->shouldAbort(0x1080, false)); // next line
}

TEST(HistoryTable, UseBitLifecycle)
{
    stats::Group root("sys");
    auto st = makeSnarf(root, 64, 4);
    // A miss on a line without an entry marks nothing.
    st->recordMiss(0x1000);
    EXPECT_EQ(st->table().peek(0x1000), nullptr);
    // The write back enters the tag with its use bit clear...
    st->recordWriteBack(0x1000);
    ASSERT_NE(st->table().peek(0x1000), nullptr);
    EXPECT_FALSE(st->table().peek(0x1000)->used);
    // ...and a miss while it is present sets the bit.
    st->recordMiss(0x1040); // same line
    EXPECT_TRUE(st->table().peek(0x1000)->used);
    std::ostringstream os;
    stats::writeText(root, os);
    EXPECT_NE(os.str().find("snarf_table.miss_marked 1"),
              std::string::npos);
}

TEST(HistoryTable, ReallocatePreservesUseBit)
{
    // 4 entries, 2-way: 0x000 and 0x100 share set 0.
    stats::Group root("sys");
    auto st = makeSnarf(root, 4, 2);
    st->recordWriteBack(0x000);
    st->recordMiss(0x000);
    st->recordWriteBack(0x100);
    const HistoryEntry *e = st->table().peek(0x000);
    ASSERT_NE(e, nullptr);
    // Written back again, the line is refreshed in its own way: no
    // eviction, and the use bit stays.
    st->recordWriteBack(0x000);
    EXPECT_EQ(st->table().peek(0x000), e);
    EXPECT_TRUE(e->used);
    EXPECT_NE(st->table().peek(0x100), nullptr);
    EXPECT_EQ(st->table().countValid(), 2u);
}

TEST(HistoryTable, LruEvictionWithinSet)
{
    // 8 entries, 4-way -> 2 sets; set = (addr >> 7) & 1, so a stride
    // of 0x100 stays in set 0.
    stats::Group root("sys");
    auto w = makeWbht(root, 8, 4);
    for (int i = 0; i < 4; ++i)
        w->recordL3Valid(static_cast<Addr>(i) * 0x100);
    // Consulting the oldest line refreshes it...
    EXPECT_TRUE(w->shouldAbort(0x000, true));
    // ...so a fifth line evicts the next oldest.
    w->recordL3Valid(4 * 0x100);
    EXPECT_NE(w->table().peek(0x000), nullptr);
    EXPECT_EQ(w->table().peek(0x100), nullptr);
    // Recording a present line refreshes it too.
    w->recordL3Valid(0x200);
    w->recordL3Valid(5 * 0x100);
    EXPECT_NE(w->table().peek(0x200), nullptr);
    EXPECT_EQ(w->table().peek(0x300), nullptr);
}

TEST(HistoryTable, EvictedEntryLosesUseBit)
{
    // 256 entries / 16-way = 16 sets; set stride = 16 lines = 0x800.
    // Fill the set with reused lines, so the LRU one (0x1000) goes.
    stats::Group root("sys");
    auto st = makeSnarf(root, 256, 16);
    for (int i = 0; i <= 16; ++i) {
        const Addr a = 0x1000 + static_cast<Addr>(i) * 0x800;
        st->recordWriteBack(a);
        st->recordMiss(a);
    }
    EXPECT_EQ(st->table().peek(0x1000), nullptr);
    // Entered again, the line starts over without its use bit.
    st->recordWriteBack(0x1000);
    EXPECT_FALSE(st->shouldFlagSnarf(0x1000));
}

TEST(HistoryTable, EraseRemoves)
{
    // Invalidating a history entry frees its way: the line and its
    // use bit are gone, and the way is the set's next fill.
    HistoryArray t(64 * 128, 4, 128); // 16 sets
    for (Addr a = 0; a < 10 * 128; a += 128)
        t.insert(t.findVictim(a), a, {.present = true});
    HistoryEntry *e = t.lookup(0x100);
    ASSERT_NE(e, nullptr);
    e->used = true;
    t.invalidate(e);
    EXPECT_EQ(*e, HistoryEntry{});
    EXPECT_EQ(t.lineOf(e), InvalidAddr);
    EXPECT_EQ(t.lookup(0x100), nullptr);
    EXPECT_EQ(t.lookup(0x140), nullptr); // nor any address in the line
    EXPECT_EQ(t.countValid(), 9u);
    HistoryEntry *v = t.findVictim(0x100 + 16 * 128);
    EXPECT_EQ(v, e);
    t.insert(v, 0x100 + 16 * 128, {.present = true});
    EXPECT_FALSE(v->used);
}

TEST(HistoryTable, CountValidAndClear)
{
    stats::Group root("sys");
    auto w = makeWbht(root, 64, 4);
    for (Addr a = 0; a < 10 * 128; a += 128)
        w->recordL3Valid(a);
    EXPECT_EQ(w->table().countValid(), 10u);
    // Taking an empty peer's state (as functional warmup copies a
    // peer's) clears every entry.
    stats::Group other("other");
    const auto empty = makeWbht(other, 64, 4);
    w->copyStateFrom(*empty);
    EXPECT_EQ(w->table().countValid(), 0u);
    EXPECT_EQ(w->table(), empty->table());
    EXPECT_FALSE(w->shouldAbort(0x0, false));
}

TEST(HistoryTable, ContainsNoTouchLeavesLruAlone)
{
    // The informed-replacement probe (peek) must not refresh an entry.
    stats::Group root("sys");
    auto w = makeWbht(root, 4, 2); // 2 sets, 2-way
    w->recordL3Valid(0x000);
    w->recordL3Valid(0x100);
    EXPECT_NE(w->table().peek(0x000), nullptr);
    w->recordL3Valid(0x200); // evicts 0x000, still the LRU
    EXPECT_EQ(w->table().peek(0x000), nullptr);
    EXPECT_NE(w->table().peek(0x100), nullptr);
}

TEST(HistoryTable, CapacityNeverExceeded)
{
    stats::Group root("sys");
    auto w = makeWbht(root, 128, 8);
    for (Addr a = 0; a < 1000 * 128; a += 128)
        w->recordL3Valid(a);
    EXPECT_EQ(w->table().countValid(), 128u);
}

TEST(HistoryTableDeath, BadGeometryPanics)
{
    stats::Group root("sys");
    // 100 entries do not divide into 16-way sets; 96 give 6 sets.
    EXPECT_DEATH(makeWbht(root, 100, 16), "divide");
    EXPECT_DEATH(makeWbht(root, 96, 16), "power of 2");
    EXPECT_DEATH(makeWbht(root, 0, 16), "power of 2");
    EXPECT_DEATH(makeSnarf(root, 48, 16), "power of 2");
    // Way masks are 64 bits wide.
    EXPECT_DEATH(makeWbht(root, 128, 128), "at most 64 ways");
    EXPECT_DEATH(makeSnarf(root, 128, 128), "at most 64 ways");
    WriteBackHistoryTable::Params p;
    p.linesPerEntry = 3;
    EXPECT_DEATH(WriteBackHistoryTable(&root, p), "power of 2");
}

// Property sweep over table sizes: a working set that fits is fully
// retained; one that does not fit loses entries.
class TableSizeSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TableSizeSweep, RetentionMatchesCapacity)
{
    const std::uint64_t entries = GetParam();
    stats::Group root("sys");
    auto w = makeWbht(root, entries, 16);
    // Record exactly `entries` distinct lines, striding one line.
    for (Addr a = 0; a < entries * 128; a += 128)
        w->recordL3Valid(a);
    EXPECT_EQ(w->table().countValid(), entries);
    std::uint64_t hits = 0;
    for (Addr a = 0; a < entries * 128; a += 128)
        hits += w->table().peek(a) != nullptr;
    EXPECT_EQ(hits, entries); // perfectly retained

    // Doubling the footprint evicts the first half.
    for (Addr a = entries * 128; a < 2 * entries * 128; a += 128)
        w->recordL3Valid(a);
    EXPECT_EQ(w->table().countValid(), entries);
    EXPECT_EQ(w->table().peek(0), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TableSizeSweep,
                         ::testing::Values(512u, 1024u, 4096u, 32768u));

TEST(HistoryTable, WrapKeepsLruOrder)
{
    // One 4-way set. A..D take stamps 1..4; with the LRU clock at its
    // top, consulting B renumbers them to 1..4 and gives B stamp 5.
    stats::Group root("sys");
    auto w = makeWbht(root, 4, 4);
    const Addr a = 0x000, b = 0x080, c = 0x100, d = 0x180;
    for (const Addr x : {a, b, c, d})
        w->recordL3Valid(x);
    w->table().setLruClockForTest(LruPolicy::MaxStamp);
    EXPECT_TRUE(w->shouldAbort(b, true));
    EXPECT_EQ(w->table().lru().clock(), 5u);
    // Victims go oldest first: A, C, D, then B.
    w->recordL3Valid(0x200);
    EXPECT_EQ(w->table().peek(a), nullptr);
    w->recordL3Valid(0x280);
    EXPECT_EQ(w->table().peek(c), nullptr);
    w->recordL3Valid(0x300);
    EXPECT_EQ(w->table().peek(d), nullptr);
    EXPECT_NE(w->table().peek(b), nullptr);
    w->recordL3Valid(0x380);
    EXPECT_EQ(w->table().peek(b), nullptr);
}

namespace
{

/**
 * A 64-entry, 8-way history table of either kind behind one set of
 * operations: the WBHT (plain LRU victims) or the snarf table (the
 * LRU way without a use bit first).
 */
class AnyHistoryTable
{
  public:
    explicit AnyHistoryTable(bool protect_used) : root_("sys")
    {
        if (protect_used)
            snarf_ = makeSnarf(root_, 64, 8);
        else
            wbht_ = makeWbht(root_, 64, 8);
    }

    HistoryArray &
    array()
    {
        return wbht_ ? wbht_->table() : snarf_->table();
    }

    /** Enter @p a: an L3-valid response, or an observed write back. */
    void
    record(Addr a)
    {
        if (wbht_)
            wbht_->recordL3Valid(a);
        else
            snarf_->recordWriteBack(a);
    }

    /** A miss on @p a; only the snarf table hears of misses. */
    void
    miss(Addr a)
    {
        if (snarf_)
            snarf_->recordMiss(a);
    }

    /** The table's answer for @p a: abort the write back, or flag it
     * snarfable. */
    bool
    consult(Addr a)
    {
        return wbht_ ? wbht_->shouldAbort(a, false)
                     : snarf_->shouldFlagSnarf(a);
    }

    /** Drop @p a's entry, if any (the array's invalidate). */
    void
    erase(Addr a)
    {
        if (HistoryEntry *e = array().lookup(a, false))
            array().invalidate(e);
    }

    /** Every way in order: its line and its entry. */
    std::vector<std::pair<Addr, HistoryEntry>>
    contents()
    {
        std::vector<std::pair<Addr, HistoryEntry>> ways;
        array().forEach([&](Addr line, const HistoryEntry &e) {
            ways.emplace_back(line, e);
        });
        return ways;
    }

  private:
    stats::Group root_;
    std::unique_ptr<WriteBackHistoryTable> wbht_;
    std::unique_ptr<SnarfTable> snarf_;
};

} // namespace

// Renumbering at the LRU clock's top must change no answer: one random
// record/miss/consult/erase sequence goes to a table and to a twin
// whose clock starts just below LruPolicy::MaxStamp, so it renumbers
// part-way through. The parameter picks the victim rule: the WBHT's
// plain LRU, or the snarf table's, which protects used entries. After
// every step both tables also hold the same lines in the same ways
// with the same use bits.
class HistoryTableWrap : public ::testing::TestWithParam<bool>
{
};

TEST_P(HistoryTableWrap, RenumberingChangesNoAnswer)
{
    AnyHistoryTable plain(GetParam());
    AnyHistoryTable wrapped(GetParam());
    wrapped.array().setLruClockForTest(LruPolicy::MaxStamp - 2000);
    Rng rng(7);
    for (int step = 0; step < 20000; ++step) {
        // Four times the capacity keeps hits and evictions common.
        const Addr a = rng.below(256) * 128;
        const auto roll = rng.below(100);
        if (roll < 40) {
            plain.record(a);
            wrapped.record(a);
        } else if (roll < 60) {
            plain.miss(a);
            wrapped.miss(a);
        } else if (roll < 90) {
            ASSERT_EQ(plain.consult(a), wrapped.consult(a))
                << "step " << step;
        } else {
            plain.erase(a);
            wrapped.erase(a);
        }
        ASSERT_EQ(plain.contents(), wrapped.contents()) << "step " << step;
    }
    EXPECT_EQ(plain.array().countValid(), wrapped.array().countValid());
    EXPECT_LT(wrapped.array().lru().clock(), plain.array().lru().clock())
        << "the clock never wrapped";
}

INSTANTIATE_TEST_SUITE_P(UseBits, HistoryTableWrap, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "ProtectUsed" : "LruOnly";
                         });
