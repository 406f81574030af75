/**
 * @file
 * Parallel deterministic experiment sweeps.
 *
 * A SweepSpec is the cross product {workloads} x {policies} x
 * {outstanding-miss limits} -- the shape of every table and figure in
 * the paper. expand() flattens it into independent jobs in row-major
 * axis order; runSweep() executes the jobs on a std::thread pool.
 *
 * Determinism contract: every job builds its own CmpSystem and event
 * queue, and nothing in the simulator mutates shared global state, so
 * results depend only on the spec. The setup jobs share -- each
 * distinct workload trace, generated once, and its warm image, built
 * once -- is read-only once built and equals what a lone Simulation
 * builds for itself. Jobs are collected
 * by job index, which makes the returned vector --
 * and any JSON serialization of it -- byte-identical whether the
 * sweep ran on one thread or sixteen. Wall-clock timing is inherently
 * non-deterministic and therefore lives in separate fields that only
 * the bench writer emits (see docs/sweep.md).
 */

#ifndef CMPCACHE_SIM_SWEEP_HH
#define CMPCACHE_SIM_SWEEP_HH

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/time_series.hh"
#include "obs/trace_export.hh"
#include "sim/experiment.hh"
#include "stats/stats.hh"
#include "sim/system_config.hh"
#include "trace/workload.hh"

namespace cmpcache
{

/** Full-stats dump format captured per cell (None = no dump). */
enum class StatsFormat
{
    None,
    Text,
    Json,
};

/** @p root's full stats dump in @p format (empty for None). */
std::string dumpStats(const stats::Group &root, StatsFormat format);

/** "wl.key" = value workload overrides, in the order given. */
using WorkloadOverrides =
    std::vector<std::pair<std::string, std::string>>;

/** One expanded grid cell, ready to run. */
struct SweepJob
{
    unsigned index = 0; ///< position in deterministic job order
    std::string workload;
    WbPolicy policy = WbPolicy::Baseline;
    unsigned outstanding = 0;

    SystemConfig config;    ///< fully resolved per-job configuration
    WorkloadParams params;  ///< fully resolved workload parameters

    /** "Trade2/combined/o6" -- progress lines and labels. */
    std::string label() const;
};

/** Sweep axes plus everything shared by all cells. */
struct SweepSpec
{
    /** Commercial ("TP", "Trade2", ...) or stress ("thrash", ...)
     * workload names. */
    std::vector<std::string> workloads;
    std::vector<WbPolicy> policies;
    /** cpu.maxOutstanding values (the paper's pressure axis). */
    std::vector<unsigned> outstanding;

    std::uint64_t recordsPerThread = 20000;
    std::uint64_t seed = 1;

    /**
     * Configuration shared by every cell. Per-cell resolution swaps
     * in the cell's policy (halving both table sizes for Combined, as
     * the paper does) and outstanding-miss limit, keeping every other
     * base knob -- retry switch, table sizes, cache geometry --
     * untouched.
     */
    SystemConfig base;

    /**
     * wl.* overrides applied to every cell's workload by
     * resolveWorkload(). They only shape the generator (footprints,
     * sharing fractions, mixes); the axis name, recordsPerThread,
     * seed, the topology and l2.line_size set the rest. expand()
     * throws SimException on unknown keys or out-of-range parameters.
     */
    WorkloadOverrides workloadOverrides;

    /** Run the drained-machine coherence check
     * (checkDrainedCoherence) on every finished cell. */
    bool checkCoherence = false;

    /**
     * Capture a full stats dump per cell in this format (the CLI's
     * --stats-format). Sampling and tracing are configured through
     * base.obs (the CLI's --sample-every / --trace-out).
     */
    StatsFormat statsFormat = StatsFormat::None;

    /** Number of grid cells. */
    std::size_t size() const;

    /** Flatten into jobs: workload-major, then policy, then
     * outstanding. SimException (Config) on empty axes or unknown
     * names. */
    std::vector<SweepJob> expand() const;

    /** SimException (Config) on empty axes, unknown workloads, or a
     * base config that fails validation. */
    void validate() const;
};

/** Everything measured about one finished cell. */
struct SweepJobResult
{
    /**
     * Did the cell complete? Workers isolate failures: a cell whose
     * construction or run throws (bad per-cell config, watchdog trip,
     * budget overrun) reports ok = false with the structured error
     * below while every other cell completes normally. Error cells
     * keep their identity fields (result.workload / policy /
     * maxOutstanding) so reports stay aligned with the grid.
     */
    bool ok = true;
    /** SimErrorKind name ("config", "watchdog", ...); empty when ok. */
    std::string errorKind;
    /** Human-readable failure message; empty when ok. */
    std::string error;

    /**
     * Rerun identity, filled for failed cells: the exact workload
     * seed, fault plan and machine shape the cell ran with, plus a
     * one-line `cmpcache serve` command that replays it standalone
     * (docs/robustness.md): the workload identity, every config key
     * whose value differs from a default SystemConfig, and the wl.*
     * overrides. Emitted in the error-cell JSON so a failure in a big
     * grid is reproducible without re-deriving the per-cell
     * configuration.
     */
    std::uint64_t seed = 0;
    std::string faultPlan;
    std::uint64_t faultSeed = 0;
    std::string topologySummary;
    std::string rerun;

    ExperimentResult result;
    /** Invariant-checker violations (0 unless checkCoherence). */
    std::uint64_t coherenceViolations = 0;

    /** Kernel events executed by the job (deterministic). */
    std::uint64_t eventsExecuted = 0;

    /** Sampled time series (empty unless base.obs.sampleEvery > 0);
     * deterministic. */
    SampleSeries samples;

    /** Recorded coherence transactions (empty unless
     * base.obs.traceEnabled); deterministic, ring-buffer bounded. */
    std::vector<TraceEvent> trace;

    /** Full stats dump (empty unless statsFormat != None);
     * deterministic. */
    std::string statsDump;

    // Timing -- never part of deterministic output.
    double wallSeconds = 0.0;
    double cyclesPerSec = 0.0; ///< simulated cycles per wall second
    double eventsPerSec = 0.0; ///< kernel events per wall second
};

/**
 * Progress hooks. Callbacks are serialized by the runner (never
 * concurrent) but fire from worker threads in completion order.
 */
class SweepObserver
{
  public:
    virtual ~SweepObserver() = default;

    virtual void jobStarted(const SweepJob &job, unsigned total)
    {
        (void)job;
        (void)total;
    }

    /**
     * @param done jobs finished so far (including this one)
     * @param eta_seconds naive remaining-time estimate; < 0 while
     *        unknown
     */
    virtual void jobFinished(const SweepJob &job,
                             const SweepJobResult &r, unsigned done,
                             unsigned total, double eta_seconds)
    {
        (void)job;
        (void)r;
        (void)done;
        (void)total;
        (void)eta_seconds;
    }

    /** @p job's cell generated the trace it shares with the other
     * cells of its workload (tests count these; no output does). */
    virtual void traceGenerated(const SweepJob &job) { (void)job; }

    /** @p job's cell built the warm image it shares with the other
     * cells of its trace. */
    virtual void warmImageBuilt(const SweepJob &job) { (void)job; }
};

/** Observer printing "start"/"done" lines with an ETA to a stream. */
class SweepProgressPrinter : public SweepObserver
{
  public:
    explicit SweepProgressPrinter(std::ostream &os) : os_(os) {}

    void jobStarted(const SweepJob &job, unsigned total) override;
    void jobFinished(const SweepJob &job, const SweepJobResult &r,
                     unsigned done, unsigned total,
                     double eta_seconds) override;

  private:
    std::ostream &os_;
};

/**
 * Run every cell of @p spec on @p num_threads worker threads
 * (clamped to [1, jobs]).
 * @return results in job order, independent of thread count
 */
std::vector<SweepJobResult> runSweep(const SweepSpec &spec,
                                     unsigned num_threads,
                                     SweepObserver *observer = nullptr);

/**
 * Resolve a workload by name across both families: the commercial
 * stand-ins and the stress patterns. SimException (Config) on
 * unknown names.
 */
WorkloadParams sweepWorkloadByName(const std::string &name,
                                   std::uint64_t records_per_thread,
                                   std::uint64_t seed);

/** Is @p name resolvable by sweepWorkloadByName()? */
bool isSweepWorkload(const std::string &name);

/**
 * The workload a sweep cell or `serve --workload` runs on @p cfg:
 * @p name at @p records_per_thread and @p seed, then @p overrides in
 * order, then the machine's thread count and line size. SimException
 * (Config) on a bad name, key or value and on workloadParamErrors()
 * at that line size, naming the key.
 */
WorkloadParams resolveWorkload(const std::string &name,
                               std::uint64_t records_per_thread,
                               std::uint64_t seed,
                               const WorkloadOverrides &overrides,
                               const SystemConfig &cfg);

/**
 * Deterministic sweep results file, schema
 * "cmpcache-sweep-results-v2": the spec's axes, an optional
 * "timeSeries" block (one sampled-series object per cell, present
 * when base.obs.sampleEvery > 0), and one result object per cell in
 * job order (read by scripts/reproduce.py).
 * Failed cells appear as {"status": "error", "errorKind": ...,
 * "error": ..., workload/policy/maxOutstanding, plus the rerun
 * identity: seed, topology, faultPlan, faultSeed and a one-line
 * "rerun" command} in place of the result object; all-ok
 * files carry no "status" fields and stay byte-identical to earlier
 * releases. Byte-identical for equal specs
 * regardless of thread count.
 */
void writeSweepResultsJson(std::ostream &os, const SweepSpec &spec,
                           const std::vector<SweepJobResult> &results);

/**
 * Timing companion file, schema "cmpcache-sweep-bench-v1": per-job
 * wall seconds and simulated-cycles-per-second throughput, plus
 * aggregate totals, the host's core count and the process's peak
 * resident set so far. This is what bench/BENCH_*.json files hold.
 */
void writeSweepBenchJson(std::ostream &os, const SweepSpec &spec,
                         const std::vector<SweepJobResult> &results,
                         unsigned num_threads, double total_wall_seconds);

} // namespace cmpcache

#endif // CMPCACHE_SIM_SWEEP_HH
