/**
 * @file
 * Regression tests for the properties the parallel sweep runner
 * depends on: stats registration and dumping are purely per-instance
 * (no static mutable state), so independent Group trees can be built,
 * mutated, and dumped concurrently, and dump output is a
 * deterministic function of the tree alone.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "stats/sink.hh"
#include "stats/stats.hh"

using namespace cmpcache::stats;

namespace
{

/** A miniature per-system stats tree, as each sweep job builds. */
struct SystemStats
{
    Group root;
    Group l2;
    Group l3;
    Scalar hits;
    Scalar misses;
    Average occupancy;
    Histogram latency;
    Formula hitRate;

    SystemStats()
        : root("system"),
          l2(&root, "l2"),
          l3(&root, "l3"),
          hits(&l2, "hits", "demand hits"),
          misses(&l2, "misses", "demand misses"),
          occupancy(&l3, "occupancy", "queue occupancy"),
          latency(&l2, "latency", "miss latency", 0, 100, 10),
          hitRate(&l2, "hit_rate", "hit fraction", [this] {
              const double a = static_cast<double>(hits.value())
                               + static_cast<double>(misses.value());
              return a > 0
                         ? static_cast<double>(hits.value()) / a
                         : 0.0;
          })
    {
    }

    /** Deterministic exercise of every stat type. */
    void
    exercise(unsigned rounds)
    {
        for (unsigned i = 0; i < rounds; ++i) {
            ++hits;
            if (i % 3 == 0)
                ++misses;
            occupancy.sample(static_cast<double>(i % 7));
            latency.sample(static_cast<double>((i * 13) % 120));
        }
    }

    std::string
    dumpText() const
    {
        std::ostringstream os;
        writeText(root, os);
        return os.str();
    }
};

} // namespace

TEST(StatsConcurrent, DumpOrderIsRegistrationOrder)
{
    SystemStats a;
    a.exercise(100);
    const std::string text = a.dumpText();
    // Stable dotted paths in insertion order.
    const auto hits = text.find("system.l2.hits");
    const auto misses = text.find("system.l2.misses");
    const auto occ = text.find("system.l3.occupancy");
    ASSERT_NE(hits, std::string::npos);
    ASSERT_NE(misses, std::string::npos);
    ASSERT_NE(occ, std::string::npos);
    EXPECT_LT(hits, misses);
    // Children dump after this group's own stats, in child order.
    EXPECT_LT(misses, occ);
}

TEST(StatsConcurrent, IdenticalTreesDumpIdentically)
{
    SystemStats a, b;
    a.exercise(500);
    b.exercise(500);
    EXPECT_EQ(a.dumpText(), b.dumpText());

    std::ostringstream json_a, json_b;
    writeJson(a.root, json_a);
    writeJson(b.root, json_b);
    EXPECT_EQ(json_a.str(), json_b.str());
}

TEST(StatsConcurrent, ConcurrentTreesMatchSerialReference)
{
    // Reference built single-threaded.
    SystemStats ref;
    ref.exercise(2000);
    const std::string expected = ref.dumpText();

    // Eight threads each build + exercise + dump an independent tree
    // at the same time; any hidden shared registry, id counter, or
    // shared formatting state would corrupt at least one of them.
    constexpr unsigned kThreads = 8;
    std::vector<std::string> dumps(kThreads);
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (unsigned t = 0; t < kThreads; ++t) {
            threads.emplace_back([&dumps, t] {
                for (unsigned rep = 0; rep < 3; ++rep) {
                    SystemStats s;
                    s.exercise(2000);
                    dumps[t] = s.dumpText();
                }
            });
        }
        for (auto &th : threads)
            th.join();
    }
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(dumps[t], expected) << "thread " << t;
}
