/**
 * @file
 * Simulation: the one front door to running cmpcache.
 *
 * Owns the whole lifecycle -- configuration, system construction,
 * warmup, the timed run, result collection -- plus the observability
 * layer (periodic sampler, coherence-transaction tracer) when
 * cfg.obs asks for it. The CLI sweep runner and the examples all run
 * through this class, so every entry point gets identical semantics:
 *
 *     Simulation sim(cfg, workloadParams);
 *     ExperimentResult r = sim.run();
 *     stats::writeText(sim.system(), std::cout);
 *     if (sim.sampled()) ... sim.samples() ...
 */

#ifndef CMPCACHE_SIM_SIMULATION_HH
#define CMPCACHE_SIM_SIMULATION_HH

#include <iosfwd>
#include <memory>
#include <string>

#include "obs/sampler.hh"
#include "obs/trace_export.hh"
#include "sim/cmp_system.hh"
#include "sim/experiment.hh"
#include "sim/system_config.hh"
#include "sim/watchdog.hh"
#include "trace/trace_source.hh"
#include "trace/workload.hh"

namespace cmpcache
{

class Simulation
{
  public:
    /**
     * Synthetic-workload run: resolves the workload's line size into
     * the cache configs, builds the system, and (if cfg.warmupPass)
     * functionally pre-warms the caches with one workload pass.
     */
    Simulation(const SystemConfig &cfg, const WorkloadParams &workload);

    /**
     * Synthetic-workload run over a trace generated beforehand (a
     * sweep cell): each CPU replays its thread's array of @p trace in
     * place -- it is shared read-only with other runs, and this
     * Simulation keeps it alive -- and a non-null @p warm is loaded
     * as the functional warmup. The config is resolved as by the
     * constructor above.
     */
    Simulation(const SystemConfig &cfg, const WorkloadParams &workload,
               std::shared_ptr<const PerThreadRecords> trace,
               std::shared_ptr<const WarmImage> warm);

    /**
     * Pre-built trace run (e.g. trace files). The bundle is consumed
     * and the run starts cold. The config is taken as-is (line sizes
     * must already be set).
     */
    Simulation(const SystemConfig &cfg, TraceBundle traces,
               std::string input_name);

    /**
     * Streaming run (`cmpcache serve`): records are decoded from
     * @p stream on demand, as each CPU needs its next one, and
     * split per thread by a bounded demux, so resident memory stays
     * bounded no matter how long the stream is (docs/serving.md).
     * Warmup is forced off -- a stream can only be consumed once.
     * When cfg.obs.ingestGauges is set, ingest.* gauges (records
     * decoded, demux window, ingest rate) are registered and
     * sampled alongside the default probes.
     */
    Simulation(const SystemConfig &cfg,
               std::unique_ptr<std::istream> stream,
               std::string input_name);

    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /**
     * Run the traces to completion and collect the result. Idempotent:
     * later calls return the first run's result.
     */
    const ExperimentResult &run();

    bool ran() const { return ran_; }

    CmpSystem &system() { return *sys_; }
    const CmpSystem &system() const { return *sys_; }
    const SystemConfig &config() const { return sys_->config(); }

    /** Was the periodic sampler enabled (cfg.obs.sampleEvery > 0)? */
    bool sampled() const { return sampler_ != nullptr; }
    /** The captured time series (empty when not sampled). */
    const SampleSeries &samples() const;

    /** Was transaction tracing enabled (cfg.obs.traceEnabled)? */
    bool traced() const { return tracer_ != nullptr; }
    const TraceRecorder *tracer() const { return tracer_.get(); }
    /** The surviving trace events (empty when not traced). */
    std::vector<TraceEvent> traceEvents() const;

    /** Non-null when cfg.watchdog.every > 0. */
    Watchdog *watchdog() { return watchdog_.get(); }

    /** Non-null on streaming runs. */
    StreamIngest *ingest() { return ingest_.get(); }

    /**
     * Where the watchdog flushes a Chrome/Perfetto trace on a trip
     * (only when tracing is enabled); empty disables the flush.
     */
    void setWatchdogFlushPath(std::string path)
    {
        watchdogFlushPath_ = std::move(path);
    }

  private:
    /** Attach sampler / tracer / watchdog per the system's config. */
    void initObservability();
    /**
     * One online conformance sweep (check.invariants_every): run the
     * structural coherence invariants plus the oracle's violation
     * flush mid-run, then post the next while the machine is still
     * busy.
     */
    void invariantSweep();
    /** Post the next invariant sweep one period from now. */
    void postInvariantSweep();
    /** Register live ingest.* gauges (streaming + obs.ingest only). */
    void initIngestGauges();

    std::string inputName_;
    /**
     * Declared before sys_: the CPUs hold DemuxSources into the
     * ingest pipeline, or SpanSources into the shared trace, so both
     * must be destroyed after them.
     */
    std::unique_ptr<StreamIngest> ingest_;
    std::shared_ptr<const PerThreadRecords> trace_;
    std::unique_ptr<CmpSystem> sys_;
    /** ingest.* gauge stats; child of sys_'s group, reads ingest_. */
    struct IngestStats;
    std::unique_ptr<IngestStats> ingestStats_;
    std::unique_ptr<Sampler> sampler_;
    std::unique_ptr<TraceRecorder> tracer_;
    std::unique_ptr<Watchdog> watchdog_;
    std::string watchdogFlushPath_;
    ExperimentResult result_;
    bool ran_ = false;
};

} // namespace cmpcache

#endif // CMPCACHE_SIM_SIMULATION_HH
