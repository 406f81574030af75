/**
 * @file
 * Property test: the TagArray with LRU replacement is checked against
 * a simple reference model (per-set std::vector ordered by recency)
 * over long randomized operation sequences.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "mem/mshr.hh"
#include "mem/tag_array.hh"

using namespace cmpcache;

namespace
{

/** Straightforward recency-list model of an LRU set-assoc cache. */
class RefModel
{
  public:
    RefModel(unsigned sets, unsigned ways, unsigned line)
        : sets_(sets), ways_(ways), line_(line), order_(sets)
    {
    }

    unsigned
    setOf(Addr a) const
    {
        return static_cast<unsigned>((a / line_) % sets_);
    }

    bool
    contains(Addr line_addr) const
    {
        const auto &v = order_[setOf(line_addr)];
        return std::find(v.begin(), v.end(), line_addr) != v.end();
    }

    void
    touch(Addr line_addr)
    {
        auto &v = order_[setOf(line_addr)];
        const auto it = std::find(v.begin(), v.end(), line_addr);
        ASSERT_NE(it, v.end());
        v.erase(it);
        v.push_back(line_addr); // back = MRU
    }

    /** Returns the evicted line (InvalidAddr if none). */
    Addr
    insert(Addr line_addr)
    {
        auto &v = order_[setOf(line_addr)];
        Addr evicted = InvalidAddr;
        if (v.size() >= ways_) {
            evicted = v.front();
            v.erase(v.begin());
        }
        v.push_back(line_addr);
        return evicted;
    }

  private:
    unsigned sets_;
    unsigned ways_;
    unsigned line_;
    std::vector<std::vector<Addr>> order_;
};

class TagArrayModelSweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(TagArrayModelSweep, MatchesReferenceLru)
{
    constexpr unsigned Line = 128;
    constexpr unsigned Ways = 4;
    constexpr unsigned Sets = 8;
    TagArray tags(Sets * Ways * Line, Ways, Line);
    RefModel model(Sets, Ways, Line);
    Rng rng(GetParam());

    for (int step = 0; step < 20000; ++step) {
        // A footprint of 3x capacity keeps both hits and misses
        // common.
        const Addr line = rng.below(3 * Sets * Ways) * Line;

        const bool model_hit = model.contains(line);
        TagEntry *e = tags.lookup(line); // touches on hit
        ASSERT_EQ(e != nullptr, model_hit) << "step " << step;

        if (model_hit) {
            model.touch(line);
            continue;
        }
        // Miss path: victim choice must agree with the model.
        TagEntry *victim = tags.findVictim(line);
        const Addr model_evicted = model.insert(line);
        if (model_evicted == InvalidAddr) {
            ASSERT_FALSE(victim->valid()) << "step " << step;
        } else {
            ASSERT_TRUE(victim->valid()) << "step " << step;
            ASSERT_EQ(victim->lineAddr, model_evicted)
                << "step " << step;
        }
        tags.insert(victim, line, LineState::Shared);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TagArrayModelSweep,
                         ::testing::Values(11ull, 23ull, 47ull, 89ull,
                                           131ull));

namespace
{

class MshrFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(MshrFuzz, AccountingNeverDrifts)
{
    MshrFile file(8);
    Rng rng(GetParam());
    std::vector<Addr> live;

    for (int step = 0; step < 20000; ++step) {
        const auto roll = rng.below(100);
        if (roll < 50 && !file.full()) {
            // Allocate a fresh line.
            Addr line = (rng.below(1000) + 1) * 128;
            while (file.find(line))
                line += 128 * 1000;
            file.allocate(line, BusCmd::Read,
                          static_cast<ThreadId>(rng.below(16)),
                          rng.chance(0.3), step);
            live.push_back(line);
        } else if (roll < 80 && !live.empty()) {
            // Coalesce into an existing MSHR.
            const Addr line = live[rng.below(live.size())];
            Mshr *m = file.find(line);
            ASSERT_NE(m, nullptr);
            file.addWaiter(m, static_cast<ThreadId>(rng.below(16)),
                           rng.chance(0.3), step);
        } else if (!live.empty()) {
            // Complete one.
            const auto idx = rng.below(live.size());
            Mshr *m = file.find(live[idx]);
            ASSERT_NE(m, nullptr);
            ASSERT_GE(m->waiters.size(), 1u);
            file.deallocate(m);
            live.erase(live.begin()
                       + static_cast<std::ptrdiff_t>(idx));
        }
        ASSERT_EQ(file.inUse(), live.size());
        ASSERT_EQ(file.full(), live.size() == 8);
        for (const Addr l : live)
            ASSERT_NE(file.find(l), nullptr);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MshrFuzz,
                         ::testing::Values(3ull, 17ull, 101ull));
