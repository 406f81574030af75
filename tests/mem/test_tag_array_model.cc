/**
 * @file
 * Property test: the set-associative array with LRU replacement is
 * checked against a simple reference model (per-set recency lists of
 * ways) over long randomized operation sequences, with cold
 * (InsertPos::Lru) fills mixed in and across a wrap of the 32-bit LRU
 * clock: as an L2/L3 TagArray under plain LRU, and as a snarf table's
 * HistoryArray under its use-bit victim rule.
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
 * recent way. Each way also has a use bit (the snarf table's), which
 * a fill clears.
 */
class RefModel
{
  public:
    RefModel(unsigned sets, unsigned ways, unsigned line)
        : ways_(ways), line_(line),
          lines_(sets, std::vector<Addr>(ways, InvalidAddr)),
          used_(sets, std::vector<bool>(ways, false)), recent_(sets)
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

    /**
     * The snarf table's victim: the lowest invalid way, else the
     * least recent way without a use bit, else the least recent way.
     * (Its fills are all InsertPos::Mru, so no valid way is cold.)
     */
    unsigned
    snarfVictim(unsigned set) const
    {
        for (unsigned w = 0; w < ways_; ++w) {
            if (lines_[set][w] == InvalidAddr)
                return w;
        }
        for (const unsigned w : recent_[set]) {
            if (!used_[set][w])
                return w;
        }
        return recent_[set].front();
    }

    bool used(unsigned set, unsigned way) const { return used_[set][way]; }
    void markUsed(unsigned set, unsigned way) { used_[set][way] = true; }

    void
    fill(unsigned set, unsigned way, Addr line_addr, InsertPos pos)
    {
        lines_[set][way] = line_addr;
        used_[set][way] = false;
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
    std::vector<std::vector<bool>> used_;
    std::vector<std::vector<unsigned>> recent_;
};

constexpr unsigned Line = 128;
constexpr unsigned Ways = 4;
constexpr unsigned Sets = 8;

/** Every way's rank in @p tags must equal the model's. */
template <typename Entry>
void
expectRanksMatch(const SetAssocArray<Entry> &tags, const RefModel &model,
                 int step)
{
    for (unsigned st = 0; st < Sets; ++st) {
        for (unsigned w = 0; w < Ways; ++w) {
            ASSERT_EQ(tags.lru().rank(st, w), model.rank(st, w))
                << "step " << step << " set " << st << " way " << w;
        }
    }
}

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
        ASSERT_NO_FATAL_FAILURE(expectRanksMatch(tags, model, step));
    }
}

/**
 * @p steps random snarf-table operations through @p table and
 * @p model, written as SnarfTable writes them: a write back (a
 * touching lookup, else a fill into the LRU way without a use bit,
 * else the LRU way), a miss (a touching lookup that sets the use
 * bit), a flag check (a touching lookup that reads it) and a
 * non-touching lookup. Every hit, use bit, victim and rank must
 * agree.
 */
void
runSnarfSequence(HistoryArray &table, RefModel &model, Rng &rng,
                 int steps)
{
    for (int step = 0; step < steps; ++step) {
        const Addr line = rng.below(3 * Sets * Ways) * Line;
        const unsigned set = model.setOf(line);
        const unsigned way = model.wayOf(line);
        const auto roll = rng.below(100);

        const bool touch = roll < 85;
        HistoryEntry *e = table.lookup(line, touch);
        ASSERT_EQ(e != nullptr, way < Ways) << "step " << step;
        if (e) {
            ASSERT_EQ(e->used, model.used(set, way)) << "step " << step;
            if (touch)
                model.touch(set, way);
            if (roll >= 40 && roll < 70) {
                e->used = true;
                model.markUsed(set, way);
            }
        } else if (roll < 40) {
            HistoryEntry *victim = table.findVictimAmong(
                line, [](const HistoryEntry &h) { return !h.used; });
            if (!victim)
                victim = table.findVictim(line);
            const unsigned model_way = model.snarfVictim(set);
            ASSERT_EQ(table.lineOf(victim), model.lineAt(set, model_way))
                << "step " << step;
            table.insert(victim, line, {.present = true});
            model.fill(set, model_way, line, InsertPos::Mru);
        }
        ASSERT_NO_FATAL_FAILURE(expectRanksMatch(table, model, step));
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

TEST_P(TagArrayModelSweep, SnarfRuleMatchesReferenceAcrossClockWrap)
{
    HistoryArray table(Sets * Ways * Line, Ways, Line);
    RefModel model(Sets, Ways, Line);
    Rng rng(GetParam());
    runSnarfSequence(table, model, rng, 5000);
    table.setLruClockForTest(LruPolicy::MaxStamp - 300);
    runSnarfSequence(table, model, rng, 15000);
    EXPECT_LT(table.lru().clock(), 15000u) << "the clock never wrapped";
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
