/**
 * @file
 * Property test: the TagArray with LRU replacement is checked against
 * a simple reference model (per-set recency lists of ways) over long
 * randomized operation sequences, with cold (InsertPos::Lru) fills
 * mixed in and across a wrap of the 32-bit LRU clock.
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

/**
 * Straightforward model of an LRU set-associative cache: per set, the
 * line in each way and the ways with a recency, least recent first.
 * The other ways are cold (never filled, or filled at InsertPos::Lru
 * and not touched since) and tie below every recent way. A victim is
 * the lowest invalid way, else the lowest cold way, else the least
 * recent way.
 */
class RefModel
{
  public:
    RefModel(unsigned sets, unsigned ways, unsigned line)
        : ways_(ways), line_(line),
          lines_(sets, std::vector<Addr>(ways, InvalidAddr)),
          recent_(sets)
    {
    }

    unsigned
    setOf(Addr a) const
    {
        return static_cast<unsigned>((a / line_) % lines_.size());
    }

    /** The way holding @p line_addr, or ways if none does. */
    unsigned
    wayOf(Addr line_addr) const
    {
        const auto &v = lines_[setOf(line_addr)];
        return static_cast<unsigned>(
            std::find(v.begin(), v.end(), line_addr) - v.begin());
    }

    Addr
    lineAt(unsigned set, unsigned way) const
    {
        return lines_[set][way];
    }

    void
    touch(unsigned set, unsigned way)
    {
        std::erase(recent_[set], way);
        recent_[set].push_back(way); // back = MRU
    }

    unsigned
    victim(unsigned set) const
    {
        for (unsigned w = 0; w < ways_; ++w) {
            if (lines_[set][w] == InvalidAddr)
                return w;
        }
        for (unsigned w = 0; w < ways_; ++w) {
            if (!isRecent(set, w))
                return w;
        }
        return recent_[set].front();
    }

    void
    fill(unsigned set, unsigned way, Addr line_addr, InsertPos pos)
    {
        lines_[set][way] = line_addr;
        std::erase(recent_[set], way);
        if (pos == InsertPos::Mru)
            recent_[set].push_back(way);
    }

    /** LruPolicy::rank: the ways of the set with an older stamp. */
    unsigned
    rank(unsigned set, unsigned way) const
    {
        const auto &r = recent_[set];
        const auto it = std::find(r.begin(), r.end(), way);
        if (it == r.end())
            return 0;
        return ways_ - static_cast<unsigned>(r.size())
               + static_cast<unsigned>(it - r.begin());
    }

  private:
    bool
    isRecent(unsigned set, unsigned way) const
    {
        const auto &r = recent_[set];
        return std::find(r.begin(), r.end(), way) != r.end();
    }

    unsigned ways_;
    unsigned line_;
    std::vector<std::vector<Addr>> lines_;
    std::vector<std::vector<unsigned>> recent_;
};

constexpr unsigned Line = 128;
constexpr unsigned Ways = 4;
constexpr unsigned Sets = 8;

/**
 * @p steps random references through @p tags and @p model, each miss
 * filling at InsertPos::Lru with probability @p lru_frac. Every hit,
 * every victim and, after each step, the rank of every way must
 * agree.
 */
void
runSequence(TagArray &tags, RefModel &model, Rng &rng, double lru_frac,
            int steps)
{
    for (int step = 0; step < steps; ++step) {
        // A footprint of 3x capacity keeps both hits and misses
        // common.
        const Addr line = rng.below(3 * Sets * Ways) * Line;
        const unsigned set = model.setOf(line);
        const unsigned way = model.wayOf(line);

        TagEntry *e = tags.lookup(line); // touches on hit
        ASSERT_EQ(e != nullptr, way < Ways) << "step " << step;
        if (e) {
            model.touch(set, way);
        } else {
            // Miss path: victim choice must agree with the model.
            TagEntry *victim = tags.findVictim(line);
            const unsigned model_way = model.victim(set);
            ASSERT_EQ(tags.lineOf(victim), model.lineAt(set, model_way))
                << "step " << step;
            ASSERT_EQ(victim->valid(),
                      model.lineAt(set, model_way) != InvalidAddr)
                << "step " << step;
            const InsertPos pos = rng.chance(lru_frac) ? InsertPos::Lru
                                                       : InsertPos::Mru;
            tags.insert(victim, line, LineState::Shared, pos);
            model.fill(set, model_way, line, pos);
        }
        for (unsigned st = 0; st < Sets; ++st) {
            for (unsigned w = 0; w < Ways; ++w) {
                ASSERT_EQ(tags.lru().rank(st, w), model.rank(st, w))
                    << "step " << step << " set " << st << " way " << w;
            }
        }
    }
}

class TagArrayModelSweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(TagArrayModelSweep, MatchesReferenceLru)
{
    TagArray tags(Sets * Ways * Line, Ways, Line);
    RefModel model(Sets, Ways, Line);
    Rng rng(GetParam());
    runSequence(tags, model, rng, 0.0, 20000);
}

TEST_P(TagArrayModelSweep, MatchesReferenceLruAcrossClockWrap)
{
    TagArray tags(Sets * Ways * Line, Ways, Line);
    RefModel model(Sets, Ways, Line);
    Rng rng(GetParam());
    runSequence(tags, model, rng, 0.25, 5000);
    // Old stamps stay small while new ones near the top of the clock,
    // and the clock wraps within the next few hundred references.
    tags.setLruClockForTest(LruPolicy::MaxStamp - 300);
    runSequence(tags, model, rng, 0.25, 15000);
    EXPECT_LT(tags.lru().clock(), 15000u) << "the clock never wrapped";
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
