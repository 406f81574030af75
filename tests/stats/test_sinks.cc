/**
 * @file
 * Golden-output tests for the text and JSON stats dumps
 * (stats/sink.hh). The literals pin both formats byte for byte on a
 * tree with one stat of every kind; the ctests stats_dump_*_golden
 * pin them on a whole machine (tests/golden/stats_thrash300.*).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/sink.hh"
#include "stats/stats.hh"

using namespace cmpcache;
using namespace cmpcache::stats;

namespace
{

/** One of everything, nested one level deep. */
class SinkTest : public ::testing::Test
{
  protected:
    SinkTest()
        : root("sys"),
          hits(&root, "hits", "hit count"),
          lat(&root, "lat", "latency"),
          occ(&root, "occ", "occupancy", 0.0, 4.0, 2),
          ratio(&root, "ratio", "hit ratio", [] { return 0.25; }),
          l2(&root, "l2"),
          misses(&l2, "misses", "miss count"),
          evictions(&l2, "evictions", "")
    {
        hits += 42;
        lat.sample(1.0);
        lat.sample(2.0);
        occ.sample(-1.0); // underflow
        occ.sample(0.5);  // bucket[0,2)
        occ.sample(1.0);  // bucket[0,2)
        occ.sample(3.0);  // bucket[2,4)
        occ.sample(5.0);  // overflow
        misses += 7;
        evictions += 3;
    }

    Group root;
    Scalar hits;
    Average lat;
    Histogram occ;
    Formula ratio;
    Group l2;
    Scalar misses;
    Scalar evictions; ///< empty description: text still prints " # "
};

TEST_F(SinkTest, TextGolden)
{
    std::ostringstream os;
    writeText(root, os);
    EXPECT_EQ(os.str(),
              "sys.hits 42 # hit count\n"
              "sys.lat 1.5 # latency (samples=2)\n"
              "sys.occ.mean 1.7 # occupancy\n"
              "sys.occ.count 5\n"
              "sys.occ.underflow 1\n"
              "sys.occ.bucket[0,2) 2\n"
              "sys.occ.bucket[2,4) 1\n"
              "sys.occ.overflow 1\n"
              "sys.ratio 0.25 # hit ratio\n"
              "sys.l2.misses 7 # miss count\n"
              "sys.l2.evictions 3 # \n");
}

TEST_F(SinkTest, JsonGolden)
{
    std::ostringstream os;
    writeJson(root, os);
    EXPECT_EQ(os.str(),
              "{\n"
              "  \"sys.hits\": 42,\n"
              "  \"sys.lat\": 1.5,\n"
              "  \"sys.occ.mean\": 1.7,\n"
              "  \"sys.occ.count\": 5,\n"
              "  \"sys.occ.underflow\": 1,\n"
              "  \"sys.occ.bucket[0,2)\": 2,\n"
              "  \"sys.occ.bucket[2,4)\": 1,\n"
              "  \"sys.occ.overflow\": 1,\n"
              "  \"sys.ratio\": 0.25,\n"
              "  \"sys.l2.misses\": 7,\n"
              "  \"sys.l2.evictions\": 3\n"
              "}\n");
}

TEST_F(SinkTest, CallerStreamStateDoesNotLeakIn)
{
    // Values format through a fresh default-state stream, so a
    // caller's precision/flags cannot perturb golden output.
    for (const auto write : {&writeText, &writeJson}) {
        std::ostringstream os;
        os.precision(1);
        os.setf(std::ios::fixed);
        os.setf(std::ios::hex, std::ios::basefield);
        std::ostringstream plain;
        write(root, os);
        write(root, plain);
        EXPECT_EQ(os.str(), plain.str());
    }
}

TEST_F(SinkTest, EmissionOrderIsRegistrationOrderDepthFirst)
{
    // Group stats precede child groups; both in registration order.
    for (const auto write : {&writeText, &writeJson}) {
        std::ostringstream os;
        write(root, os);
        const auto text = os.str();
        EXPECT_LT(text.find("sys.hits"), text.find("sys.lat"));
        EXPECT_LT(text.find("sys.ratio"), text.find("sys.l2.misses"));
    }
}

TEST(JsonDump, EmptyGroupStillBalancesBraces)
{
    Group root("empty");
    std::ostringstream os;
    writeJson(root, os);
    EXPECT_EQ(os.str(), "{\n\n}\n");
}

} // namespace
