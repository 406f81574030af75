/**
 * @file
 * Per-reference hot-path microbenchmarks: the throughput of three
 * structures on the simulator's per-reference path -- TagArray lookup
 * and victim selection, ZipfSampler's Eytzinger CDF descent and the
 * InplaceFunction one-shot callable -- each on a seeded workload
 * shaped like its use in the model.
 *
 * Every loop folds its results into a checksum that is written to a
 * volatile, so the compiler cannot dead-code the timed work. Whether
 * the structures compute the right answers is the unit tests' job.
 *
 * Emits cmpcache-hotpath-bench-v1 JSON (see bench/BENCH_hotpath.json
 * for the committed baseline; scripts/check.sh bench guards it). The
 * JSON records the host's hardware thread count as `hostCores`: the
 * guard gates only where it equals the baseline's.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coherence/state.hh"
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

/** Where each timed loop's checksum goes, so the loop stays live. */
volatile std::uint64_t checksumSink = 0;

struct PairStats
{
    std::string name;
    std::uint64_t ops = 0;
    double currentSeconds = 0.0;

    double
    currentOpsPerSec() const
    {
        return currentSeconds > 0.0 ? ops / currentSeconds : 0.0;
    }
};

// ---------------------------------------------------------------------
// Pair 1: tag lookup + victim selection through the
// predicate-filtered LRU scan (findVictimAmong) that snarfing uses.
// ---------------------------------------------------------------------

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

    std::uint64_t current_sum = 0;
    {
        TagArray tags(SizeBytes, Assoc, LineSize);
        Rng rng(99);
        const Timer t;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const Addr addr = rng.below(Lines) * LineSize;
            if (TagEntry *e = tags.lookup(addr)) {
                current_sum += tags.lineOf(e);
                continue;
            }
            TagEntry *v = tags.findVictimAmong(
                addr, [](const TagEntry &e) {
                    return !e.valid()
                           || e.state != LineState::Modified;
                });
            current_sum += tags.lineOf(v);
            tags.insert(v, addr, LineState::Shared);
        }
        s.currentSeconds = t.seconds();
    }
    checksumSink = current_sum;
    return s;
}

// ---------------------------------------------------------------------
// Pair 2: Zipf CDF inversion by the branchless Eytzinger descent.
// ---------------------------------------------------------------------

PairStats
runZipf(std::uint64_t ops)
{
    constexpr std::size_t N = 1u << 16;
    constexpr double Exponent = 0.9;

    PairStats s;
    s.name = "zipf";
    s.ops = ops;

    ZipfSampler sampler(N, Exponent);

    std::uint64_t current_sum = 0;
    {
        Rng rng(1234);
        const Timer t;
        for (std::uint64_t i = 0; i < ops; ++i)
            current_sum += sampler.sampleAt(rng.real());
        s.currentSeconds = t.seconds();
    }
    checksumSink = current_sum;
    return s;
}

// ---------------------------------------------------------------------
// Pair 3: one-shot callable storage -- InplaceFunction with the
// ~40-byte capture the ring completion events carry.
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
    checksumSink = current_sum;
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
    os << "{\n  \"schema\": \"cmpcache-hotpath-bench-v1\",\n"
       << "  \"hostCores\": " << std::thread::hardware_concurrency()
       << ",\n  \"opsPerPair\": " << ops << ",\n  \"pairs\": [\n";
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto &p = pairs[i];
        os << "    {\"name\": \"" << p.name
           << "\", \"ops\": " << p.ops << ", \"currentSeconds\": "
           << jsonNum(p.currentSeconds) << ", \"currentOpsPerSec\": "
           << jsonNum(p.currentOpsPerSec()) << "}"
           << (i + 1 == pairs.size() ? "\n" : ",\n");
    }
    os << "  ]\n}\n";
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
