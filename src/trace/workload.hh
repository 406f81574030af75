/**
 * @file
 * Parameterized synthetic workload generator.
 *
 * The paper evaluates on proprietary L2-traffic traces of four
 * commercial workloads. We cannot ship those, so cmpcache synthesizes
 * per-thread reference streams whose cache-level behaviour is shaped
 * on the axes the paper's mechanisms react to:
 *
 *  - reuse skew (Zipf exponent, hot-set size) -> write-back redundancy
 *    and WBHT hit rates;
 *  - working-set size relative to L2/L3 -> L3 hit rates and thrash;
 *  - sharing (a common region touched by all threads) -> interventions
 *    and snarf usefulness;
 *  - store fraction -> dirty/clean write-back mix;
 *  - compute gaps -> memory pressure (CPU utilization).
 *
 * Each hardware thread draws from its own deterministic RNG stream,
 * so a workload is fully reproducible from (params, seed).
 */

#ifndef CMPCACHE_TRACE_WORKLOAD_HH
#define CMPCACHE_TRACE_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace cmpcache
{

/** Tunable knobs of the synthetic generator. */
struct WorkloadParams
{
    std::string name = "synthetic";

    unsigned numThreads = 16;
    std::uint64_t recordsPerThread = 100000;
    std::uint64_t seed = 1;
    unsigned lineSize = 128;

    /** Per-thread private hot region, in cache lines. */
    std::uint64_t privateLines = 4096;
    /** Zipf exponent of reuse within the private region. */
    double privateZipf = 0.8;
    /**
     * Threads per "private" region: 1 = truly thread-private; 4 =
     * the four threads of one L2 share a heap (e.g. one server
     * process per core pair, as in the Trade2 J2EE container).
     */
    unsigned privateGroupSize = 1;

    /** Globally shared hot region, in cache lines. */
    std::uint64_t sharedLines = 2048;
    /** Probability a reference targets the shared region. */
    double sharedFrac = 0.1;
    /** Zipf exponent within the shared region. */
    double sharedZipf = 0.6;

    /**
     * OS/kernel segment: shared, instruction-heavy, touched by every
     * thread. The paper notes its traces contain both application and
     * OS references.
     */
    std::uint64_t kernelLines = 1024;
    double kernelFrac = 0.05;

    /** Streaming region (cold misses), walked sequentially per
     * thread. */
    std::uint64_t streamLines = 1u << 20;
    double streamFrac = 0.05;

    /** Probability a data reference is a store. */
    double storeFrac = 0.25;

    /**
     * Store probability within the shared region; negative means
     * "same as storeFrac". Read-mostly shared data (indices, lock-
     * free lookup structures) keeps shared write backs clean.
     */
    double sharedStoreFrac = -1.0;

    /** Mean compute gap (cycles) between consecutive references. */
    double gapMean = 4.0;

    /**
     * Phase length in references; each phase re-seats a fraction of
     * the private hot set, creating medium-distance reuse (lines
     * evicted, then missed on again -- the WBHT's food).
     */
    std::uint64_t phaseLength = 0; // 0 = no phases
    double phaseShift = 0.25;      // fraction of hot set re-seated

    bool operator==(const WorkloadParams &) const = default;
};

/**
 * The generator's three reuse samplers for one WorkloadParams. Their
 * CDF tables are read-only and shared by copies, so one set serves
 * every thread of a workload and every pass over it.
 */
struct WorkloadSamplers
{
    explicit WorkloadSamplers(const WorkloadParams &params);

    ZipfSampler privateRegion;
    ZipfSampler sharedRegion;
    ZipfSampler kernelRegion;
};

/**
 * Generates the stream for one hardware thread. Stateless across
 * threads: all cross-thread structure comes from shared region bases.
 */
class WorkloadThreadSource : public TraceSource
{
  public:
    /** A source with its own samplers. */
    WorkloadThreadSource(const WorkloadParams &params, ThreadId tid);
    /** A source drawing from @p samplers' tables, built from
     * @p params. */
    WorkloadThreadSource(const WorkloadParams &params, ThreadId tid,
                         const WorkloadSamplers &samplers);

    bool next(TraceRecord &rec) override;

  private:
    Addr lineToAddr(Addr region_base, std::uint64_t line) const;

    const WorkloadParams params_;
    const ThreadId tid_;
    Rng rng_;
    const WorkloadSamplers samplers_;
    std::uint64_t produced_ = 0;
    std::uint64_t streamCursor_ = 0;
    std::uint64_t phaseBase_ = 0;
};

/**
 * A named synthetic workload: bundles parameters and builds per-thread
 * sources. Its samplers are built once, here, and shared by every
 * source of every bundle it makes.
 */
class SyntheticWorkload
{
  public:
    explicit SyntheticWorkload(WorkloadParams params)
        : params_(std::move(params)), samplers_(params_)
    {
    }

    const WorkloadParams &params() const { return params_; }
    const std::string &name() const { return params_.name; }

    /** Build sources for all threads. */
    TraceBundle makeBundle() const;

    /** Generate each thread's whole stream into its own array: a
     * trace to replay many times (spanBundle). */
    PerThreadRecords generate() const;

    /** Materialize the whole workload as one interleaved vector
     * (round-robin across threads), e.g. for writing trace files. */
    std::vector<TraceRecord> materialize() const;

  private:
    WorkloadParams params_;
    WorkloadSamplers samplers_;
};

/** Region base addresses used by the generator (also used in tests). */
namespace region
{
constexpr Addr KernelBase = 0x0000'0000'0000ull;
constexpr Addr SharedBase = 0x0100'0000'0000ull;
constexpr Addr PrivateBase = 0x0200'0000'0000ull;
constexpr Addr StreamBase = 0x0400'0000'0000ull;
/** Address-space span reserved per thread in per-thread regions. */
constexpr Addr PerThreadSpan = 0x0000'4000'0000ull;
} // namespace region

} // namespace cmpcache

#endif // CMPCACHE_TRACE_WORKLOAD_HH
