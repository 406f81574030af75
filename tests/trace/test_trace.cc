/** @file Unit tests for trace records and sources. */

#include <gtest/gtest.h>

#include "trace/trace.hh"

using namespace cmpcache;

TEST(Trace, MemOpNames)
{
    EXPECT_STREQ(toString(MemOp::Load), "L");
    EXPECT_STREQ(toString(MemOp::Store), "S");
    EXPECT_STREQ(toString(MemOp::IFetch), "I");
}

TEST(Trace, VectorSourceYieldsInOrder)
{
    std::vector<TraceRecord> recs = {
        {0x100, 1, 0, MemOp::Load},
        {0x200, 2, 0, MemOp::Store},
    };
    VectorSource src(recs);
    TraceRecord r;
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.addr, 0x100u);
    ASSERT_TRUE(src.next(r));
    EXPECT_EQ(r.addr, 0x200u);
    EXPECT_FALSE(src.next(r));
    EXPECT_FALSE(src.next(r)); // stays exhausted
}

TEST(Trace, VectorSourceRemaining)
{
    VectorSource src({{1, 0, 0, MemOp::Load}, {2, 0, 0, MemOp::Load}});
    EXPECT_EQ(src.remaining(), 2u);
    TraceRecord r;
    src.next(r);
    EXPECT_EQ(src.remaining(), 1u);
}

TEST(Trace, SplitByThreadPartitions)
{
    std::vector<TraceRecord> recs = {
        {0x100, 0, 0, MemOp::Load},
        {0x200, 0, 1, MemOp::Load},
        {0x300, 0, 0, MemOp::Store},
        {0x400, 0, 2, MemOp::Load},
    };
    TraceBundle b = splitByThread(recs, 3);
    ASSERT_EQ(b.numThreads(), 3u);

    TraceRecord r;
    ASSERT_TRUE(b.perThread[0]->next(r));
    EXPECT_EQ(r.addr, 0x100u);
    ASSERT_TRUE(b.perThread[0]->next(r));
    EXPECT_EQ(r.addr, 0x300u);
    EXPECT_FALSE(b.perThread[0]->next(r));

    ASSERT_TRUE(b.perThread[1]->next(r));
    EXPECT_EQ(r.addr, 0x200u);
    ASSERT_TRUE(b.perThread[2]->next(r));
    EXPECT_EQ(r.addr, 0x400u);
}

TEST(Trace, SplitByThreadEmptyThreadsAllowed)
{
    TraceBundle b = splitByThread({}, 4);
    EXPECT_EQ(b.numThreads(), 4u);
    TraceRecord r;
    for (auto &src : b.perThread)
        EXPECT_FALSE(src->next(r));
}

TEST(TraceDeath, SplitByThreadRejectsOutOfRangeTid)
{
    std::vector<TraceRecord> recs = {{0x100, 0, 7, MemOp::Load}};
    EXPECT_DEATH(splitByThread(recs, 2), "out of range");
}

TEST(Trace, RecordEquality)
{
    TraceRecord a{0x100, 3, 1, MemOp::Store};
    TraceRecord b = a;
    EXPECT_TRUE(a == b);
    b.gap = 4;
    EXPECT_FALSE(a == b);
}

TEST(Trace, SpanBundleReplaysEachThreadInPlace)
{
    const PerThreadRecords recs = {
        {{0x100, 1, 0, MemOp::Load}, {0x180, 0, 0, MemOp::Store}},
        {},
        {{0x200, 3, 2, MemOp::IFetch}},
    };
    // Two bundles over one trace replay it independently.
    for (int pass = 0; pass < 2; ++pass) {
        TraceBundle bundle = spanBundle(recs);
        ASSERT_EQ(bundle.numThreads(), 3u);
        for (unsigned t = 0; t < 3; ++t) {
            TraceRecord r;
            for (const TraceRecord &want : recs[t]) {
                ASSERT_TRUE(bundle.perThread[t]->next(r));
                EXPECT_TRUE(r == want);
            }
            EXPECT_FALSE(bundle.perThread[t]->next(r));
        }
    }
}
