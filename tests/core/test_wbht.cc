/** @file Unit tests for the Write Back History Table. */

#include <gtest/gtest.h>

#include "core/wbht.hh"
#include "stats/sink.hh"

using namespace cmpcache;

namespace
{

class WbhtTest : public ::testing::Test
{
  protected:
    WbhtTest() : root_("sys")
    {
        WriteBackHistoryTable::Params p;
        p.entries = 256;
        p.assoc = 16;
        p.lineSize = 128;
        wbht_ = std::make_unique<WriteBackHistoryTable>(&root_, p);
    }

    stats::Group root_;
    std::unique_ptr<WriteBackHistoryTable> wbht_;
};

} // namespace

TEST_F(WbhtTest, UnknownLineIsNotAborted)
{
    EXPECT_FALSE(wbht_->shouldAbort(0x1000, false));
    EXPECT_EQ(wbht_->aborts(), 0u);
}

TEST_F(WbhtTest, RecordedLineIsAborted)
{
    wbht_->recordL3Valid(0x1000);
    EXPECT_TRUE(wbht_->shouldAbort(0x1000, true));
    EXPECT_EQ(wbht_->aborts(), 1u);
}

TEST_F(WbhtTest, AccuracyScoring)
{
    // Correct abort: predicted in L3, actually in L3.
    wbht_->recordL3Valid(0x1000);
    wbht_->shouldAbort(0x1000, true);
    // False abort: predicted in L3, actually NOT (L3 replaced it).
    wbht_->recordL3Valid(0x2000);
    wbht_->shouldAbort(0x2000, false);
    // Correct send: no entry, not in L3.
    wbht_->shouldAbort(0x3000, false);
    // Missed abort: no entry, but the line IS in L3.
    wbht_->shouldAbort(0x4000, true);

    EXPECT_EQ(wbht_->decisions(), 4u);
    EXPECT_EQ(wbht_->correct(), 2u);
}

TEST_F(WbhtTest, DivergenceByCapacityIsTolerated)
{
    // Overflow the 256-entry table with 1000 lines; early lines lose
    // their entries -> their write backs are (incorrectly but safely)
    // sent again.
    for (Addr a = 0; a < 1000 * 128; a += 128)
        wbht_->recordL3Valid(a);
    EXPECT_EQ(wbht_->table().countValid(), 256u);
    EXPECT_FALSE(wbht_->shouldAbort(0x0, true)); // entry long gone
    EXPECT_TRUE(
        wbht_->shouldAbort((999 * 128), true)); // most recent survives
}

TEST_F(WbhtTest, StatsExposedThroughGroup)
{
    wbht_->recordL3Valid(0x1000);
    wbht_->shouldAbort(0x1000, true);
    std::ostringstream os;
    stats::writeText(root_, os);
    EXPECT_NE(os.str().find("wbht.allocated 1"), std::string::npos);
    EXPECT_NE(os.str().find("wbht.aborted 1"), std::string::npos);
    EXPECT_NE(os.str().find("wbht.correct 1"), std::string::npos);
}

TEST(WbhtCoarse, MultiLineEntriesShareOneTag)
{
    stats::Group root("sys");
    WriteBackHistoryTable::Params p;
    p.entries = 64;
    p.assoc = 16;
    p.lineSize = 128;
    p.linesPerEntry = 4; // one entry covers a 512 B group
    WriteBackHistoryTable wbht(&root, p);

    wbht.recordL3Valid(0x1000);
    // All four lines of the group predict "in L3"...
    EXPECT_TRUE(wbht.shouldAbort(0x1000, true));
    EXPECT_TRUE(wbht.shouldAbort(0x1080, true));
    EXPECT_TRUE(wbht.shouldAbort(0x1180, false)); // ...even wrongly
    // The next group is not covered.
    EXPECT_FALSE(wbht.shouldAbort(0x1200, false));
}

TEST(WbhtCoarse, CoverageGrowsWithGranularity)
{
    stats::Group root("sys");
    WriteBackHistoryTable::Params fine;
    fine.entries = 64;
    fine.assoc = 16;
    fine.lineSize = 128;
    WriteBackHistoryTable f(&root, fine);

    auto coarse = fine;
    coarse.linesPerEntry = 8;
    WriteBackHistoryTable c(&root, coarse);

    // Record 512 consecutive lines into both 64-entry tables.
    for (Addr a = 0; a < 512 * 128; a += 128) {
        f.recordL3Valid(a);
        c.recordL3Valid(a);
    }
    // Fine granularity retains at most 64 lines; coarse covers
    // 64 * 8 = all 512.
    std::uint64_t fine_hits = 0;
    std::uint64_t coarse_hits = 0;
    for (Addr a = 0; a < 512 * 128; a += 128) {
        fine_hits += f.table().peek(a) != nullptr;
        coarse_hits += c.table().peek(a) != nullptr;
    }
    EXPECT_LE(fine_hits, 64u);
    EXPECT_EQ(coarse_hits, 512u);
}
