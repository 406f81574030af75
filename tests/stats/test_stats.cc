/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/sink.hh"
#include "stats/stats.hh"

using namespace cmpcache;
using namespace cmpcache::stats;

TEST(Stats, ScalarCountsAndResets)
{
    Group root("sys");
    Scalar s(&root, "count", "a counter");
    ++s;
    s += 4;
    EXPECT_EQ(s.value(), 5u);
    s.set(0);
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, AverageComputesMean)
{
    Group root("sys");
    Average a(&root, "avg", "an average");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.count(), 2u);
}

TEST(Stats, HistogramBucketsAndOverflow)
{
    Group root("sys");
    Histogram h(&root, "h", "hist", 0.0, 100.0, 10);
    h.sample(-5.0);
    h.sample(0.0);
    h.sample(9.9);
    h.sample(55.0);
    h.sample(100.0);
    h.sample(250.0);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(5), 1u);
}

TEST(Stats, FormulaEvaluatesLazily)
{
    Group root("sys");
    Scalar hits(&root, "hits", "");
    Scalar total(&root, "total", "");
    Formula rate(&root, "rate", "hit rate", [&] {
        return total.value()
                   ? static_cast<double>(hits.value()) / total.value()
                   : 0.0;
    });
    EXPECT_DOUBLE_EQ(rate.value(), 0.0);
    hits += 3;
    total += 4;
    EXPECT_DOUBLE_EQ(rate.value(), 0.75);
}

TEST(Stats, GroupPathsNest)
{
    Group root("system");
    Group l2(&root, "l2_0");
    Group wbht(&l2, "wbht");
    EXPECT_EQ(wbht.path(), "system.l2_0.wbht");
}

TEST(Stats, DumpContainsPathsValuesAndDescriptions)
{
    Group root("sys");
    Group child(&root, "c");
    Scalar s(&child, "n", "number of things");
    s += 7;
    std::ostringstream os;
    stats::writeText(root, os);
    EXPECT_NE(os.str().find("sys.c.n 7"), std::string::npos);
    EXPECT_NE(os.str().find("number of things"), std::string::npos);
}

TEST(Stats, FindByDottedPath)
{
    Group root("sys");
    Group child(&root, "c");
    Scalar s(&child, "n", "");
    s += 9;
    const Stat *found = root.find("c.n");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name(), "n");
    EXPECT_EQ(root.find("c.missing"), nullptr);
    EXPECT_EQ(root.find("nope.n"), nullptr);
}

TEST(Stats, ChildGroupUnregistersOnDestruction)
{
    Group root("sys");
    {
        Group child(&root, "tmp");
        Scalar s(&child, "x", "");
        s += 1;
    }
    std::ostringstream os;
    stats::writeText(root, os); // must not touch the destroyed child
    EXPECT_EQ(os.str().find("tmp"), std::string::npos);
}

TEST(Stats, HistogramMean)
{
    Group root("sys");
    Histogram h(&root, "h", "", 0.0, 10.0, 5);
    h.sample(2.0);
    h.sample(4.0);
    h.sample(6.0);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(Stats, JsonDumpIsWellFormedKeyValueMap)
{
    Group root("sys");
    Group child(&root, "c");
    Scalar s(&child, "n", "things");
    s += 3;
    Average a(&root, "avg", "");
    a.sample(1.0);
    a.sample(2.0);
    std::ostringstream os;
    stats::writeJson(root, os);
    const std::string j = os.str();
    EXPECT_EQ(j.front(), '{');
    EXPECT_NE(j.find("\"sys.c.n\": 3"), std::string::npos);
    EXPECT_NE(j.find("\"sys.avg\": 1.5"), std::string::npos);
    // Balanced braces, no trailing comma before '}'.
    EXPECT_NE(j.find("\n}"), std::string::npos);
    EXPECT_EQ(j.find(",\n}"), std::string::npos);
}
