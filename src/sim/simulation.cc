#include "sim/simulation.hh"

#include <fstream>
#include <istream>

#include "common/logging.hh"
#include "sim/invariants.hh"

namespace cmpcache
{

/**
 * Gauges over streaming ingestion. Records are decoded on the
 * simulation thread as the CPUs need them, so every value is a
 * deterministic function of the stream and the simulated time. They
 * are registered only when obs.ingest asks for them: batch runs have
 * no ingest group, and the streaming differential compares streamed
 * and batch stats dumps (see ObsConfig::ingestGauges).
 */
struct Simulation::IngestStats
{
    IngestStats(stats::Group *parent, StreamIngest &ingest,
                EventQueue *eq)
        : group(parent, "ingest"),
          ingested(&group, "ingested", "records decoded so far",
                   [&ingest] {
                       return double(ingest.recordsIngested());
                   }),
          // Both always 0 (decode is lossless and nothing waits on a
          // queue); kept for cmpbench's serve-notes check and report.
          dropped(&group, "dropped",
                  "records shed (always 0: decode is lossless)",
                  [] { return 0.0; }),
          producerWaits(&group, "producer_waits",
                        "producer waits (always 0: no ingest queue)",
                        [] { return 0.0; }),
          demuxBufferedNow(&group, "demux_buffered_now",
                           "records buffered in the demux skew window",
                           [&ingest] {
                               return double(ingest.demuxBuffered());
                           }),
          ratePerKtick(&group, "rate_per_ktick",
                       "mean ingest rate, records per 1000 ticks",
                       [&ingest, &eq = *eq] {
                           const auto t = eq.curTick();
                           return t ? 1000.0
                                          * double(
                                              ingest.recordsIngested())
                                          / double(t)
                                    : 0.0;
                       })
    {
    }

    stats::Group group;
    stats::Formula ingested;
    stats::Formula dropped;
    stats::Formula producerWaits;
    stats::Formula demuxBufferedNow;
    stats::Formula ratePerKtick;
};

namespace
{

/** Propagate the workload's line size into the cache configs. */
SystemConfig
resolveConfig(const SystemConfig &cfg, const WorkloadParams &workload)
{
    SystemConfig local = cfg;
    if (workload.numThreads != local.numThreads()) {
        throw SimException(SimError(
            SimErrorKind::Config,
            cstr("workload has ", workload.numThreads,
                 " threads but the system expects ",
                 local.numThreads())));
    }
    local.l2.lineSize = workload.lineSize;
    local.l3.lineSize = workload.lineSize;
    return local;
}

} // namespace

Simulation::Simulation(const SystemConfig &cfg,
                       const WorkloadParams &workload)
    : inputName_(workload.name)
{
    const SystemConfig local = resolveConfig(cfg, workload);
    const SyntheticWorkload synth(workload);
    sys_ = std::make_unique<CmpSystem>(local, synth.makeBundle());
    if (local.warmupPass)
        sys_->functionalWarmup(synth.makeBundle());
    initObservability();
}

Simulation::Simulation(const SystemConfig &cfg,
                       const WorkloadParams &workload,
                       std::shared_ptr<const PerThreadRecords> trace,
                       std::shared_ptr<const WarmImage> warm)
    : inputName_(workload.name), trace_(std::move(trace))
{
    sys_ = std::make_unique<CmpSystem>(resolveConfig(cfg, workload),
                                       spanBundle(*trace_));
    if (warm)
        sys_->loadWarmImage(*warm);
    initObservability();
}

Simulation::Simulation(const SystemConfig &cfg, TraceBundle traces,
                       std::string input_name)
    : inputName_(std::move(input_name))
{
    sys_ = std::make_unique<CmpSystem>(cfg, std::move(traces));
    initObservability();
}

Simulation::Simulation(const SystemConfig &cfg,
                       std::unique_ptr<std::istream> stream,
                       std::string input_name)
    : inputName_(std::move(input_name))
{
    SystemConfig local = cfg;
    // A stream is consumed exactly once: there is no second pass to
    // warm with, so the timed run starts cold.
    local.warmupPass = false;
    ingest_ = std::make_unique<StreamIngest>(
        std::move(stream), local.stream, local.numThreads());
    sys_ = std::make_unique<CmpSystem>(local, ingest_->makeBundle());
    initIngestGauges();
    initObservability();
}

Simulation::~Simulation() = default;

void
Simulation::initIngestGauges()
{
    if (!ingest_ || !sys_->config().obs.ingestGauges)
        return;
    ingestStats_ = std::make_unique<IngestStats>(sys_.get(), *ingest_,
                                                 &sys_->eventq());
}

void
Simulation::initObservability()
{
    const ObsConfig &obs = sys_->config().obs;
    if (obs.sampleEvery > 0) {
        sampler_ = std::make_unique<Sampler>(
            sys_->eventq(), *sys_, obs.sampleEvery);
        for (const auto &path : sys_->defaultProbePaths()) {
            const bool ok = sampler_->watch(path);
            cmp_assert(ok, "unresolvable probe path '", path, "'");
        }
        if (ingestStats_) {
            for (const char *path :
                 {"ingest.ingested", "ingest.dropped",
                  "ingest.producer_waits", "ingest.demux_buffered_now",
                  "ingest.rate_per_ktick"}) {
                const bool ok = sampler_->watch(path);
                cmp_assert(ok, "unresolvable probe path '", path,
                           "'");
            }
        }
        sampler_->start();
    }
    if (obs.traceEnabled) {
        tracer_ =
            std::make_unique<TraceRecorder>(obs.traceCapacity);
        sys_->ring().setTracer(tracer_.get());
    }
    if (sys_->config().check.invariantsEvery > 0)
        postInvariantSweep();
    const WatchdogConfig &wd = sys_->config().watchdog;
    if (wd.enabled()) {
        watchdog_ = std::make_unique<Watchdog>(*sys_, wd);
        watchdog_->setTripHook([this](const SimError &err) {
            warn("watchdog trip (", toString(err.kind), "): ",
                 err.message);
            if (tracer_ && !watchdogFlushPath_.empty()) {
                std::ofstream os(watchdogFlushPath_);
                if (os) {
                    writeChromeTrace(os, tracer_->events(),
                                     sampled() ? &samples() : nullptr);
                    inform("watchdog: flushed transaction trace to ",
                           watchdogFlushPath_);
                }
            }
        });
    }
}

void
Simulation::postInvariantSweep()
{
    // Like the watchdog, the sweep never keeps the event queue alive.
    EventQueue &eq = sys_->eventq();
    eq.at(eq.curTick() + sys_->config().check.invariantsEvery,
          [this] { invariantSweep(); }, "invariant-sweep",
          EventQueue::StatPri);
}

void
Simulation::invariantSweep()
{
    if (sys_->finished())
        return; // drained; never keep the queue alive

    CoherenceCheckOptions opts;
    const CoherenceCheck chk = checkCoherence(*sys_, opts);
    if (!chk.clean()) {
        throw SimException(SimError(
            SimErrorKind::Conformance,
            cstr("online invariant sweep found ", chk.violations,
                 " coherence violation(s) at tick ",
                 sys_->eventq().curTick(), ":\n", chk.report())));
    }
    if (VersionOracle *oracle = sys_->conformanceOracle())
        oracle->throwIfViolated();

    postInvariantSweep();
}

const ExperimentResult &
Simulation::run()
{
    if (!ran_) {
        if (watchdog_)
            watchdog_->start();
        const Tick finish = sys_->run();
        // With online checking on, re-verify the structural
        // invariants once more on the drained machine, where the
        // transient-bookkeeping (snarf reservation) rules apply too.
        if (sys_->config().check.invariantsEvery > 0) {
            const CoherenceCheck chk = checkDrainedCoherence(*sys_);
            if (!chk.clean()) {
                throw SimException(SimError(
                    SimErrorKind::Conformance,
                    cstr("quiesced invariant check found ",
                         chk.violations,
                         " coherence violation(s):\n",
                         chk.report())));
            }
        }
        result_ = collectResult(*sys_, finish, inputName_);
        ran_ = true;
    }
    return result_;
}

const SampleSeries &
Simulation::samples() const
{
    static const SampleSeries empty;
    return sampler_ ? sampler_->series() : empty;
}

std::vector<TraceEvent>
Simulation::traceEvents() const
{
    return tracer_ ? tracer_->events() : std::vector<TraceEvent>{};
}

} // namespace cmpcache
