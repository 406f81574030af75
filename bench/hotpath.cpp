/**
 * @file
 * Per-reference hot-path microbenchmarks: the allocation-free,
 * devirtualized implementations vs. inline replicas of the legacy
 * patterns they replaced (heap-allocated candidate vectors,
 * std::function predicates, std::lower_bound Zipf inversion,
 * std::unordered_map transaction tables, heap-backed one-shot
 * callables).
 *
 * The legacy replicas are kept deliberately faithful to the old code
 * shape so the committed BENCH_hotpath.json numbers measure the actual
 * before/after of the hot-path rework on this machine. Both sides of
 * every pair run the same seeded workload and fold results into a
 * checksum that is compared across sides, so the benchmark doubles as
 * an equivalence check and the compiler cannot dead-code either side.
 *
 * Emits cmpcache-hotpath-bench-v1 JSON (see bench/BENCH_hotpath.json
 * for the committed baseline; scripts/check.sh bench guards it).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "coherence/state.hh"
#include "common/flat_map.hh"
#include "common/inplace_function.hh"
#include "common/random.hh"
#include "mem/tag_array.hh"

namespace cmpcache
{
namespace
{

class Timer
{
  public:
    Timer() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

struct PairStats
{
    std::string name;
    std::uint64_t ops = 0;
    double legacySeconds = 0.0;
    double currentSeconds = 0.0;

    double
    legacyOpsPerSec() const
    {
        return legacySeconds > 0.0 ? ops / legacySeconds : 0.0;
    }

    double
    currentOpsPerSec() const
    {
        return currentSeconds > 0.0 ? ops / currentSeconds : 0.0;
    }

    double
    speedup() const
    {
        return legacyOpsPerSec() > 0.0
                   ? currentOpsPerSec() / legacyOpsPerSec()
                   : 0.0;
    }
};

// ---------------------------------------------------------------------
// Pair 1: tag lookup + victim selection.
//
// Legacy replica: the pre-rework TagArray hot path -- a type-erased
// std::function predicate per findVictimAmong call, a heap-allocated
// std::vector<unsigned> of candidate ways per miss, and an LRU victim
// scan over that vector.
// ---------------------------------------------------------------------

struct LegacyTagArray
{
    LegacyTagArray(std::uint64_t size_bytes, unsigned assoc,
                   unsigned line_size)
        : assoc(assoc), lineSize(line_size)
    {
        numSets = static_cast<unsigned>(size_bytes
                                        / (assoc * line_size));
        lineShift = 0;
        while ((1u << lineShift) < line_size)
            ++lineShift;
        entries.resize(static_cast<std::size_t>(numSets) * assoc);
        stamp.assign(entries.size(), 0);
    }

    Addr
    lineAlign(Addr a) const
    {
        return a & ~static_cast<Addr>(lineSize - 1);
    }

    unsigned
    setIndex(Addr a) const
    {
        return static_cast<unsigned>((a >> lineShift) & (numSets - 1));
    }

    TagEntry *
    lookup(Addr addr, bool touch = true)
    {
        const Addr line = lineAlign(addr);
        const unsigned set = setIndex(addr);
        for (unsigned w = 0; w < assoc; ++w) {
            TagEntry &e = entries[std::size_t{set} * assoc + w];
            if (e.valid() && e.lineAddr == line) {
                if (touch)
                    stamp[std::size_t{set} * assoc + w] = ++clock;
                return &e;
            }
        }
        return nullptr;
    }

    unsigned
    victimOf(unsigned set, const std::vector<unsigned> &cands)
    {
        unsigned best = cands.front();
        std::uint64_t best_stamp =
            stamp[std::size_t{set} * assoc + best];
        for (const unsigned w : cands) {
            const std::uint64_t s = stamp[std::size_t{set} * assoc + w];
            if (s < best_stamp) {
                best_stamp = s;
                best = w;
            }
        }
        return best;
    }

    TagEntry *
    findVictimAmong(Addr addr,
                    const std::function<bool(const TagEntry &)> &pred)
    {
        const unsigned set = setIndex(addr);
        std::vector<unsigned> cands; // the per-miss allocation
        for (unsigned w = 0; w < assoc; ++w) {
            TagEntry &e = entries[std::size_t{set} * assoc + w];
            if (pred(e)) {
                if (!e.valid())
                    return &e;
                cands.push_back(w);
            }
        }
        if (cands.empty())
            return nullptr;
        return &entries[std::size_t{set} * assoc
                        + victimOf(set, cands)];
    }

    void
    insert(TagEntry *victim, Addr addr, LineState state)
    {
        const std::size_t idx = victim - entries.data();
        victim->lineAddr = lineAlign(addr);
        victim->state = state;
        victim->snarfed = false;
        stamp[idx] = ++clock;
    }

    unsigned assoc;
    unsigned lineSize;
    unsigned lineShift;
    unsigned numSets;
    std::uint64_t clock = 0;
    std::vector<TagEntry> entries;
    std::vector<std::uint64_t> stamp;
};

PairStats
runTagVictim(std::uint64_t ops)
{
    constexpr std::uint64_t SizeBytes = 256 * 1024;
    constexpr unsigned Assoc = 8;
    constexpr unsigned LineSize = 64;
    // Working set ~2x capacity so roughly half the references miss and
    // exercise victim selection.
    constexpr std::uint64_t Lines = 2 * SizeBytes / LineSize;

    PairStats s;
    s.name = "tag-victim";
    s.ops = ops;

    std::uint64_t legacy_sum = 0;
    {
        LegacyTagArray tags(SizeBytes, Assoc, LineSize);
        Rng rng(99);
        const Timer t;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const Addr addr = rng.below(Lines) * LineSize;
            if (TagEntry *e = tags.lookup(addr)) {
                legacy_sum += e->lineAddr;
                continue;
            }
            TagEntry *v = tags.findVictimAmong(
                addr, [](const TagEntry &e) {
                    return !e.valid()
                           || e.state != LineState::Modified;
                });
            legacy_sum += v->lineAddr;
            tags.insert(v, addr, LineState::Shared);
        }
        s.legacySeconds = t.seconds();
    }

    std::uint64_t current_sum = 0;
    {
        TagArray tags(SizeBytes, Assoc, LineSize);
        Rng rng(99);
        const Timer t;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const Addr addr = rng.below(Lines) * LineSize;
            if (TagEntry *e = tags.lookup(addr)) {
                current_sum += e->lineAddr;
                continue;
            }
            TagEntry *v = tags.findVictimAmong(
                addr, [](const TagEntry &e) {
                    return !e.valid()
                           || e.state != LineState::Modified;
                });
            current_sum += v->lineAddr;
            tags.insert(v, addr, LineState::Shared);
        }
        s.currentSeconds = t.seconds();
    }

    // Same workload, same LRU semantics: the evicted-line sequence
    // must match exactly, so this doubles as a differential check.
    if (legacy_sum != current_sum) {
        std::cerr << "tag-victim equivalence FAILED: " << legacy_sum
                  << " != " << current_sum << "\n";
        std::exit(1);
    }
    return s;
}

// ---------------------------------------------------------------------
// Pair 2: Zipf CDF inversion -- std::lower_bound over the sorted table
// (legacy) vs. the branchless Eytzinger descent (current). Both sides
// consume the same u sequence and must produce identical rank sums.
// ---------------------------------------------------------------------

PairStats
runZipf(std::uint64_t ops)
{
    constexpr std::size_t N = 1u << 16;
    constexpr double Exponent = 0.9;

    PairStats s;
    s.name = "zipf";
    s.ops = ops;

    // Legacy sorted-CDF construction (identical arithmetic to
    // ZipfSampler's).
    std::vector<double> cdf(N);
    double acc = 0.0;
    for (std::size_t i = 0; i < N; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), Exponent);
        cdf[i] = acc;
    }
    for (auto &c : cdf)
        c /= acc;

    ZipfSampler sampler(N, Exponent);

    std::uint64_t legacy_sum = 0;
    {
        Rng rng(1234);
        const Timer t;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const double u = rng.real();
            const auto it =
                std::lower_bound(cdf.begin(), cdf.end(), u);
            legacy_sum += it == cdf.end()
                              ? N - 1
                              : static_cast<std::size_t>(
                                    it - cdf.begin());
        }
        s.legacySeconds = t.seconds();
    }

    std::uint64_t current_sum = 0;
    {
        Rng rng(1234);
        const Timer t;
        for (std::uint64_t i = 0; i < ops; ++i)
            current_sum += sampler.sampleAt(rng.real());
        s.currentSeconds = t.seconds();
    }

    if (legacy_sum != current_sum) {
        std::cerr << "zipf equivalence FAILED: " << legacy_sum
                  << " != " << current_sum << "\n";
        std::exit(1);
    }
    return s;
}

// ---------------------------------------------------------------------
// Pair 3: per-line transaction table -- std::unordered_map (legacy)
// vs. FlatMap (current) on the pendingSnarfs-style insert/find/erase
// mix.
// ---------------------------------------------------------------------

PairStats
runFlatMapPair(std::uint64_t ops)
{
    constexpr std::uint64_t Lines = 4096;
    constexpr unsigned LineSize = 64;

    PairStats s;
    s.name = "flat-map";
    s.ops = ops;

    std::uint64_t legacy_sum = 0;
    {
        std::unordered_map<Addr, std::uint64_t> map;
        Rng rng(5);
        const Timer t;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const Addr line = rng.below(Lines) * LineSize;
            switch (rng.below(4)) {
              case 0:
                map[line] = i;
                break;
              case 1:
                map.erase(line);
                break;
              default:
                if (const auto it = map.find(line); it != map.end())
                    legacy_sum += it->second;
            }
        }
        s.legacySeconds = t.seconds();
    }

    std::uint64_t current_sum = 0;
    {
        FlatMap<std::uint64_t> map;
        Rng rng(5);
        const Timer t;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const Addr line = rng.below(Lines) * LineSize;
            switch (rng.below(4)) {
              case 0:
                map[line] = i;
                break;
              case 1:
                map.erase(line);
                break;
              default:
                if (const std::uint64_t *v = map.find(line))
                    current_sum += *v;
            }
        }
        s.currentSeconds = t.seconds();
    }

    if (legacy_sum != current_sum) {
        std::cerr << "flat-map equivalence FAILED: " << legacy_sum
                  << " != " << current_sum << "\n";
        std::exit(1);
    }
    return s;
}

// ---------------------------------------------------------------------
// Pair 4: one-shot callable storage -- heap-backed std::function
// (legacy) vs. InplaceFunction (current), with the ~40-byte capture
// the ring completion events carry (too big for libstdc++'s 16-byte
// std::function SBO, so the legacy side allocates per event).
// ---------------------------------------------------------------------

struct FakeReq
{
    Addr addr;
    std::uint64_t requester;
    std::uint64_t kind;
};

PairStats
runCallable(std::uint64_t ops)
{
    PairStats s;
    s.name = "oneshot-callable";
    s.ops = ops;

    std::uint64_t legacy_sum = 0;
    {
        std::function<void()> slot;
        Rng rng(77);
        const Timer t;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const FakeReq req{rng.next(), i, i & 3};
            std::uint64_t *sum = &legacy_sum;
            slot = [req, sum, i] {
                *sum += req.addr ^ (req.requester + i);
            };
            slot();
            slot = nullptr;
        }
        s.legacySeconds = t.seconds();
    }

    std::uint64_t current_sum = 0;
    {
        InplaceFunction<void(), 48> slot;
        Rng rng(77);
        const Timer t;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const FakeReq req{rng.next(), i, i & 3};
            std::uint64_t *sum = &current_sum;
            slot = InplaceFunction<void(), 48>([req, sum, i] {
                *sum += req.addr ^ (req.requester + i);
            });
            slot();
            slot.reset();
        }
        s.currentSeconds = t.seconds();
    }

    if (legacy_sum != current_sum) {
        std::cerr << "callable equivalence FAILED: " << legacy_sum
                  << " != " << current_sum << "\n";
        std::exit(1);
    }
    return s;
}

std::string
jsonNum(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

void
writeJson(std::ostream &os, std::uint64_t ops,
          const std::vector<PairStats> &pairs)
{
    double geo = 1.0;
    for (const auto &p : pairs)
        geo *= p.speedup();
    geo = std::pow(geo, 1.0 / pairs.size());

    os << "{\n  \"schema\": \"cmpcache-hotpath-bench-v1\",\n"
       << "  \"opsPerPair\": " << ops << ",\n  \"pairs\": [\n";
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto &p = pairs[i];
        os << "    {\"name\": \"" << p.name
           << "\", \"ops\": " << p.ops << ", \"legacySeconds\": "
           << jsonNum(p.legacySeconds) << ", \"currentSeconds\": "
           << jsonNum(p.currentSeconds)
           << ", \"legacyOpsPerSec\": " << jsonNum(p.legacyOpsPerSec())
           << ", \"currentOpsPerSec\": "
           << jsonNum(p.currentOpsPerSec())
           << ", \"speedup\": " << jsonNum(p.speedup()) << "}"
           << (i + 1 == pairs.size() ? "\n" : ",\n");
    }
    os << "  ],\n  \"geomeanSpeedup\": " << jsonNum(geo) << "\n}\n";
}

} // namespace
} // namespace cmpcache

int
main(int argc, char **argv)
{
    using namespace cmpcache;

    std::uint64_t ops = 2000000;
    std::string out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--ops=", 0) == 0) {
            ops = std::stoull(arg.substr(6));
        } else if (arg.rfind("--out=", 0) == 0) {
            out = arg.substr(6);
        } else {
            std::cerr << "usage: hotpath [--ops=N] [--out=FILE]\n";
            return 2;
        }
    }

    const std::vector<PairStats> pairs{
        runTagVictim(ops),
        runZipf(ops),
        runFlatMapPair(ops),
        runCallable(ops),
    };

    writeJson(std::cout, ops, pairs);
    if (!out.empty()) {
        std::ofstream f(out);
        if (!f) {
            std::cerr << "cannot write " << out << "\n";
            return 1;
        }
        writeJson(f, ops, pairs);
        std::cerr << "hotpath bench written to " << out << "\n";
    }
    return 0;
}
