/** @file Unit tests for the snarf table. */

#include <gtest/gtest.h>

#include "core/snarf_table.hh"
#include "stats/sink.hh"

using namespace cmpcache;

namespace
{

class SnarfTableTest : public ::testing::Test
{
  protected:
    SnarfTableTest() : root_("sys")
    {
        SnarfTable::Params p;
        p.entries = 256;
        p.assoc = 16;
        p.lineSize = 128;
        st_ = std::make_unique<SnarfTable>(&root_, p);
    }

    stats::Group root_;
    std::unique_ptr<SnarfTable> st_;
};

} // namespace

TEST_F(SnarfTableTest, FreshWriteBackNotFlagged)
{
    st_->recordWriteBack(0x1000);
    // Written back once, never missed on again: no reuse evidence.
    EXPECT_FALSE(st_->shouldFlagSnarf(0x1000));
}

TEST_F(SnarfTableTest, WriteBackThenMissThenFlag)
{
    // The paper's sequence: line written back, missed on again
    // (use bit set), written back again -> flag the snarf.
    st_->recordWriteBack(0x1000);
    st_->recordMiss(0x1000);
    EXPECT_TRUE(st_->shouldFlagSnarf(0x1000));
}

TEST_F(SnarfTableTest, MissWithoutEntryDoesNothing)
{
    st_->recordMiss(0x2000);
    st_->recordWriteBack(0x2000);
    EXPECT_FALSE(st_->shouldFlagSnarf(0x2000));
}

TEST_F(SnarfTableTest, UnknownLineNeverFlagged)
{
    EXPECT_FALSE(st_->shouldFlagSnarf(0x9000));
}

TEST_F(SnarfTableTest, ReusedEntriesSurviveAllocationChurn)
{
    // The snarf table protects entries with demonstrated reuse:
    // unproven write backs churning the set must not evict them.
    st_->recordWriteBack(0x1000);
    st_->recordMiss(0x1000);
    // 256 entries / 16-way = 16 sets; set stride = 16 lines = 0x800.
    for (int i = 1; i <= 40; ++i)
        st_->recordWriteBack(0x1000 + static_cast<Addr>(i) * 0x800);
    EXPECT_TRUE(st_->shouldFlagSnarf(0x1000));
}

TEST_F(SnarfTableTest, EvictionForgetsReuseWhenSetIsAllReused)
{
    // With every way holding a *reused* line, LRU among them applies
    // and the oldest reused entry is lost.
    st_->recordWriteBack(0x1000);
    st_->recordMiss(0x1000);
    for (int i = 1; i <= 16; ++i) {
        const Addr a = 0x1000 + static_cast<Addr>(i) * 0x800;
        st_->recordWriteBack(a);
        st_->recordMiss(a); // all use bits set
    }
    EXPECT_FALSE(st_->shouldFlagSnarf(0x1000));
}

TEST_F(SnarfTableTest, ReWriteBackKeepsUseBit)
{
    // A line with demonstrated reuse keeps the flag across repeated
    // write backs (allocate() refreshes but preserves the bit).
    st_->recordWriteBack(0x1000);
    st_->recordMiss(0x1000);
    st_->recordWriteBack(0x1000);
    EXPECT_TRUE(st_->shouldFlagSnarf(0x1000));
}

TEST_F(SnarfTableTest, ProbesTouchTheEntry)
{
    // A flag check refreshes the entry it reads, so the next
    // unproven line is evicted instead.
    const Addr a = 0x1000, b = 0x1800;
    st_->recordWriteBack(a);
    for (int i = 2; i <= 16; ++i)
        st_->recordWriteBack(0x1000 + static_cast<Addr>(i) * 0x800);
    st_->recordWriteBack(b); // the set is full; b evicts a
    EXPECT_EQ(st_->table().peek(a), nullptr);

    st_->recordWriteBack(a); // evicts the oldest: 0x1000 + 2 * 0x800
    st_->shouldFlagSnarf(0x1000 + 3 * 0x800); // refreshes the next
    st_->recordWriteBack(0x1000 + 17 * 0x800);
    EXPECT_NE(st_->table().peek(0x1000 + 3 * 0x800), nullptr);
    EXPECT_EQ(st_->table().peek(0x1000 + 4 * 0x800), nullptr);
}

TEST_F(SnarfTableTest, StatsCount)
{
    st_->recordWriteBack(0x1000);
    st_->recordMiss(0x1000);
    st_->shouldFlagSnarf(0x1000);
    std::ostringstream os;
    stats::writeText(root_, os);
    EXPECT_NE(os.str().find("snarf_table.wb_recorded 1"),
              std::string::npos);
    EXPECT_NE(os.str().find("snarf_table.miss_marked 1"),
              std::string::npos);
    EXPECT_NE(os.str().find("snarf_table.flagged 1"),
              std::string::npos);
}
