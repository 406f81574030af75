#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "common/logging.hh"
#include "sim/config_io.hh"
#include "sim/invariants.hh"
#include "sim/result_json.hh"
#include "sim/simulation.hh"
#include "stats/sink.hh"
#include "trace/workload_config.hh"
#include "trace/workloads_commercial.hh"

namespace cmpcache
{

namespace
{

std::string
fmtSeconds(double s)
{
    char buf[32];
    if (s < 10.0)
        std::snprintf(buf, sizeof(buf), "%.2fs", s);
    else if (s < 120.0)
        std::snprintf(buf, sizeof(buf), "%.1fs", s);
    else {
        // Round once, then split: 179.7 s is 3m00s, not 3m60s.
        const long long whole = std::llround(s);
        std::snprintf(buf, sizeof(buf), "%lldm%02llds", whole / 60,
                      whole % 60);
    }
    return buf;
}

/** @p token quoted for a POSIX shell when it needs it. */
std::string
shellQuote(const std::string &token)
{
    if (token.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                "0123456789_-.,:=/+@%")
        == std::string::npos)
        return token;
    std::string quoted = "'";
    for (const char c : token)
        quoted += c == '\'' ? std::string("'\\''") : std::string(1, c);
    return quoted + "'";
}

/**
 * A `cmpcache serve` line that replays @p job standalone: the
 * workload identity plus every config key whose value differs from a
 * default SystemConfig, so nothing the cell ran with is left out.
 */
std::string
rerunCommand(const SweepJob &job,
             const WorkloadOverrides &workload_overrides)
{
    std::ostringstream cmd;
    cmd << "cmpcache serve --workload=" << job.workload
        << " --refs=" << job.params.recordsPerThread
        << " --seed=" << job.params.seed;
    for (const auto &[k, v] : changedConfigKeys(job.config))
        cmd << " " << shellQuote(k + "=" + v);
    for (const auto &[k, v] : workload_overrides)
        cmd << " " << shellQuote(k + "=" + v);
    return cmd.str();
}

/**
 * Setup a group of cells shares: a workload's trace, or a warm image.
 * The first cell to take it builds it while any other that asks
 * waits. Each cell of the group takes it once, and the group's last
 * take drops the sweep's own reference, so the artifact is freed
 * with the last cell holding it. A build that throws fails every
 * cell of the group with the same error.
 */
template <class T>
class SharedSetup
{
  public:
    /** One more cell will take this (counted before workers start). */
    void addUser() { ++users_; }

    /** The artifact, built by @p build if no cell has yet; @p built
     * tells whether this call built it. */
    template <class Build>
    std::shared_ptr<const T>
    take(Build &&build, bool &built)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        built = !built_;
        if (!built_) {
            built_ = true;
            try {
                value_ = std::make_shared<const T>(build());
            } catch (...) {
                error_ = std::current_exception();
            }
        }
        cmp_assert(users_ > 0, "shared setup taken by a non-user");
        const bool last = --users_ == 0;
        if (error_)
            std::rethrow_exception(error_);
        if (last)
            return std::move(value_);
        return value_;
    }

  private:
    std::mutex mutex_;
    unsigned users_ = 0;
    bool built_ = false;
    std::shared_ptr<const T> value_;
    std::exception_ptr error_;
};

/** What the cells of one workload share. */
struct WorkloadSetup
{
    SharedSetup<PerThreadRecords> trace;
    SharedSetup<WarmImage> image;
};

} // namespace

std::string
dumpStats(const stats::Group &root, StatsFormat format)
{
    std::ostringstream dump;
    switch (format) {
      case StatsFormat::Text:
        stats::writeText(root, dump);
        break;
      case StatsFormat::Json:
        stats::writeJson(root, dump);
        break;
      case StatsFormat::None:
        break;
    }
    return dump.str();
}

WorkloadParams
resolveWorkload(const std::string &name,
                std::uint64_t records_per_thread, std::uint64_t seed,
                const WorkloadOverrides &overrides,
                const SystemConfig &cfg)
{
    WorkloadParams params =
        workloads::byName(name, records_per_thread, seed);
    for (const auto &[key, value] : overrides)
        orThrow(applyWorkloadOption(params, key, value));
    params.numThreads = cfg.numThreads();
    params.lineSize = cfg.l2.lineSize;
    const auto errs = workloadParamErrors(params);
    if (!errs.empty()) {
        std::string msg = cstr("invalid workload '", name, "':");
        for (const auto &e : errs)
            msg += "\n  - " + e;
        throw SimException(SimErrorKind::Config, msg);
    }
    return params;
}

std::string
SweepJob::label() const
{
    return cstr(workload, "/", toString(policy), "/o", outstanding);
}

std::size_t
SweepSpec::size() const
{
    return workloads.size() * policies.size() * outstanding.size();
}

void
SweepSpec::validate() const
{
    const auto fail = [](const std::string &msg) {
        throw SimException(SimErrorKind::Config, msg);
    };
    if (workloads.empty())
        fail("sweep has no workloads");
    if (policies.empty())
        fail("sweep has no policies");
    if (outstanding.empty())
        fail("sweep has no outstanding-miss limits");
    if (recordsPerThread == 0)
        fail("sweep needs recordsPerThread > 0");
    for (const auto o : outstanding) {
        if (o == 0)
            fail("outstanding-miss limit must be positive");
    }
    base.validate();
}

std::vector<SweepJob>
SweepSpec::expand() const
{
    validate();
    std::vector<SweepJob> jobs;
    jobs.reserve(size());
    for (const auto &w : workloads) {
        for (const auto p : policies) {
            for (const auto o : outstanding) {
                SweepJob job;
                job.index = static_cast<unsigned>(jobs.size());
                job.workload = w;
                job.policy = p;
                job.outstanding = o;

                job.config = base;
                job.config.policy.policy = p;
                if (p == WbPolicy::Combined) {
                    // The paper's Combined row keeps total table
                    // space constant by halving both tables.
                    job.config.policy.wbht.entries = std::max<
                        std::uint64_t>(1, base.policy.wbht.entries / 2);
                    job.config.policy.snarf.entries = std::max<
                        std::uint64_t>(1, base.policy.snarf.entries / 2);
                }
                job.config.cpu.maxOutstanding = o;

                job.params =
                    resolveWorkload(w, recordsPerThread, seed,
                                    workloadOverrides, job.config);
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

void
SweepProgressPrinter::jobStarted(const SweepJob &job, unsigned total)
{
    os_ << "sweep: [" << job.index + 1 << "/" << total << "] start "
        << job.label() << "\n";
    os_.flush();
}

void
SweepProgressPrinter::jobFinished(const SweepJob &job,
                                  const SweepJobResult &r,
                                  unsigned done, unsigned total,
                                  double eta_seconds)
{
    if (!r.ok) {
        os_ << "sweep: [" << done << "/" << total << "] ERROR "
            << job.label() << ": [" << r.errorKind << "] " << r.error
            << "\n";
        os_.flush();
        return;
    }
    os_ << "sweep: [" << done << "/" << total << "] done  "
        << job.label() << ": " << r.result.execTime << " cycles in "
        << fmtSeconds(r.wallSeconds) << " ("
        << static_cast<std::uint64_t>(r.cyclesPerSec) << " cyc/s, "
        << static_cast<std::uint64_t>(r.eventsPerSec) << " ev/s)";
    if (eta_seconds >= 0.0 && done < total)
        os_ << ", eta " << fmtSeconds(eta_seconds);
    os_ << "\n";
    os_.flush();
}

std::vector<SweepJobResult>
runSweep(const SweepSpec &spec, unsigned num_threads,
         SweepObserver *observer)
{
    using Clock = std::chrono::steady_clock;

    const std::vector<SweepJob> jobs = spec.expand();
    std::vector<SweepJobResult> results(jobs.size());
    if (jobs.empty())
        return results;

    const auto total = static_cast<unsigned>(jobs.size());
    const unsigned pool = std::clamp(num_threads, 1u, total);

    // Cells with equal workload parameters replay one trace. They
    // also load one warm image: every cell has the base machine's
    // shape and cache geometry (expand() varies only the policy and
    // the outstanding limit).
    std::vector<std::size_t> setup_of(jobs.size());
    std::size_t num_setups = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        setup_of[i] = num_setups;
        for (std::size_t j = 0; j < i; ++j) {
            if (jobs[j].params == jobs[i].params) {
                setup_of[i] = setup_of[j];
                break;
            }
        }
        num_setups += setup_of[i] == num_setups;
    }
    std::vector<WorkloadSetup> setups(num_setups);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        setups[setup_of[i]].trace.addUser();
        if (jobs[i].config.warmupPass)
            setups[setup_of[i]].image.addUser();
    }

    std::atomic<std::size_t> next{0};
    std::atomic<unsigned> done{0};
    std::mutex observer_mutex;
    const auto notify = [&](const auto &call) {
        if (observer) {
            std::lock_guard<std::mutex> lock(observer_mutex);
            call(*observer);
        }
    };
    const auto sweep_start = Clock::now();

    const auto worker = [&]() {
        while (true) {
            const std::size_t i = next.fetch_add(1);
            if (i >= jobs.size())
                break;
            const SweepJob &job = jobs[i];
            notify([&](SweepObserver &o) { o.jobStarted(job, total); });

            SweepJobResult r;
            const auto job_start = Clock::now();
            try {
                WorkloadSetup &setup = setups[setup_of[i]];
                bool built = false;
                auto trace = setup.trace.take(
                    [&] { return SyntheticWorkload(job.params).generate(); },
                    built);
                if (built)
                    notify([&](SweepObserver &o) { o.traceGenerated(job); });
                std::shared_ptr<const WarmImage> warm;
                if (job.config.warmupPass) {
                    warm = setup.image.take(
                        [&] {
                            return buildWarmImage(job.config,
                                                  spanBundle(*trace));
                        },
                        built);
                    if (built)
                        notify([&](SweepObserver &o) {
                            o.warmImageBuilt(job);
                        });
                }
                Simulation sim(job.config, job.params, std::move(trace),
                               std::move(warm));
                r.result = sim.run();
                r.eventsExecuted = sim.system().totalExecuted();
                if (spec.checkCoherence)
                    r.coherenceViolations =
                        checkDrainedCoherence(sim.system()).violations;
                if (sim.sampled())
                    r.samples = sim.samples();
                if (sim.traced())
                    r.trace = sim.traceEvents();
                r.statsDump = dumpStats(sim.system(), spec.statsFormat);
            } catch (const SimException &e) {
                r.ok = false;
                r.errorKind = toString(e.error().kind);
                r.error = e.error().message;
            } catch (const std::exception &e) {
                r.ok = false;
                r.errorKind = toString(SimErrorKind::Internal);
                r.error = e.what();
            }
            if (!r.ok) {
                // Keep the grid aligned: error cells still identify
                // themselves, but carry no measurements.
                r.result = ExperimentResult{};
                r.result.workload = job.workload;
                r.result.policy = toString(job.policy);
                r.result.maxOutstanding = job.outstanding;
                r.coherenceViolations = 0;
                r.eventsExecuted = 0;
                r.samples = SampleSeries{};
                r.trace.clear();
                r.statsDump.clear();
                // Rerun identity: everything needed to replay this
                // one cell standalone, as a one-liner.
                r.seed = job.params.seed;
                r.faultPlan = job.config.fault.plan;
                r.faultSeed = job.config.fault.seed;
                const TopologyParams &shape = job.config.topology;
                r.topologySummary = cstr(
                    "cores=", shape.cores, " smt=", shape.smt,
                    " l2s=", shape.l2s, " l3_slices=",
                    shape.l3Slices);
                r.rerun = rerunCommand(job, spec.workloadOverrides);
            }
            r.wallSeconds =
                std::chrono::duration<double>(Clock::now() - job_start)
                    .count();
            r.cyclesPerSec =
                r.wallSeconds > 0.0
                    ? static_cast<double>(r.result.execTime)
                          / r.wallSeconds
                    : 0.0;
            r.eventsPerSec =
                r.wallSeconds > 0.0
                    ? static_cast<double>(r.eventsExecuted)
                          / r.wallSeconds
                    : 0.0;
            results[i] = std::move(r);

            const unsigned d = ++done;
            const double elapsed =
                std::chrono::duration<double>(Clock::now() - sweep_start)
                    .count();
            // Completion rate already reflects the pool width.
            const double eta = elapsed * (total - d) / d;
            notify([&](SweepObserver &o) {
                o.jobFinished(job, results[i], d, total, eta);
            });
        }
    };

    if (pool == 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(pool);
        for (unsigned t = 0; t < pool; ++t)
            threads.emplace_back(worker);
        for (auto &t : threads)
            t.join();
    }
    return results;
}

namespace
{

template <typename T, typename Fn>
void
writeJsonList(std::ostream &os, const std::vector<T> &xs, Fn &&fn)
{
    os << "[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i)
            os << ", ";
        fn(xs[i]);
    }
    os << "]";
}

void
writeSpecAxes(std::ostream &os, const SweepSpec &spec)
{
    os << "  \"workloads\": ";
    writeJsonList(os, spec.workloads, [&os](const std::string &w) {
        os << '"' << jsonEscape(w) << '"';
    });
    os << ",\n  \"policies\": ";
    writeJsonList(os, spec.policies, [&os](WbPolicy p) {
        os << '"' << toString(p) << '"';
    });
    os << ",\n  \"outstanding\": ";
    writeJsonList(os, spec.outstanding,
                  [&os](unsigned o) { os << o; });
    os << ",\n  \"recordsPerThread\": " << spec.recordsPerThread
       << ",\n  \"seed\": " << spec.seed;
    if (!spec.workloadOverrides.empty()) {
        os << ",\n  \"workloadOverrides\": {";
        bool first = true;
        for (const auto &[key, value] : spec.workloadOverrides) {
            os << (first ? "" : ", ") << '"' << jsonEscape(key)
               << "\": \"" << jsonEscape(value) << '"';
            first = false;
        }
        os << "}";
    }
}

} // namespace

void
writeSweepResultsJson(std::ostream &os, const SweepSpec &spec,
                      const std::vector<SweepJobResult> &results)
{
    os << "{\n  \"schema\": \"cmpcache-sweep-results-v2\",\n"
       << "  \"schemaVersion\": " << kResultSchemaVersion << ",\n";
    writeSpecAxes(os, spec);
    os << ",\n  \"checkCoherence\": "
       << (spec.checkCoherence ? "true" : "false");
    if (spec.checkCoherence) {
        os << ",\n  \"coherenceViolations\": ";
        writeJsonList(os, results, [&os](const SweepJobResult &r) {
            os << r.coherenceViolations;
        });
    }
    if (spec.base.obs.sampleEvery > 0) {
        os << ",\n  \"sampleEvery\": " << spec.base.obs.sampleEvery
           << ",\n  \"timeSeries\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            writeSampleSeriesJson(os, results[i].samples, 4);
            if (i + 1 < results.size())
                os << ",";
            os << "\n";
        }
        os << "  ]";
    }
    os << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SweepJobResult &r = results[i];
        if (r.ok) {
            writeResultJson(os, r.result, 4);
        } else {
            os << "    {\n"
               << "      \"schemaVersion\": " << kResultSchemaVersion
               << ",\n      \"status\": \"error\",\n"
               << "      \"errorKind\": \"" << jsonEscape(r.errorKind)
               << "\",\n      \"error\": \"" << jsonEscape(r.error)
               << "\",\n      \"workload\": \""
               << jsonEscape(r.result.workload)
               << "\",\n      \"policy\": \""
               << jsonEscape(r.result.policy)
               << "\",\n      \"maxOutstanding\": "
               << r.result.maxOutstanding
               << ",\n      \"seed\": " << r.seed
               << ",\n      \"topology\": \""
               << jsonEscape(r.topologySummary)
               << "\",\n      \"faultPlan\": \""
               << jsonEscape(r.faultPlan)
               << "\",\n      \"faultSeed\": " << r.faultSeed
               << ",\n      \"rerun\": \"" << jsonEscape(r.rerun)
               << "\"\n    }";
        }
        if (i + 1 < results.size())
            os << ",";
        os << "\n";
    }
    os << "  ]\n}\n";
}

void
writeSweepBenchJson(std::ostream &os, const SweepSpec &spec,
                    const std::vector<SweepJobResult> &results,
                    unsigned num_threads, double total_wall_seconds)
{
    std::uint64_t total_cycles = 0;
    std::uint64_t total_events = 0;
    for (const auto &r : results) {
        total_cycles += r.result.execTime;
        total_events += r.eventsExecuted;
    }

    // The process's peak resident set so far, in MiB (Linux reports
    // ru_maxrss in KiB).
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    os << "{\n  \"schema\": \"cmpcache-sweep-bench-v1\",\n";
    writeSpecAxes(os, spec);
    os << ",\n  \"threads\": " << num_threads
       << ",\n  \"hostCores\": " << std::thread::hardware_concurrency()
       << ",\n  \"peakRssMb\": " << jsonDouble(peak_rss_mb)
       << ",\n  \"jobs\": " << results.size()
       << ",\n  \"totalWallSeconds\": "
       << jsonDouble(total_wall_seconds)
       << ",\n  \"totalSimCycles\": " << total_cycles
       << ",\n  \"totalEvents\": " << total_events
       << ",\n  \"aggregateCyclesPerSec\": "
       << jsonDouble(total_wall_seconds > 0.0
                         ? static_cast<double>(total_cycles)
                               / total_wall_seconds
                         : 0.0)
       << ",\n  \"aggregateEventsPerSec\": "
       << jsonDouble(total_wall_seconds > 0.0
                         ? static_cast<double>(total_events)
                               / total_wall_seconds
                         : 0.0)
       << ",\n  \"perJob\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        os << "    {\"workload\": \""
           << jsonEscape(r.result.workload) << "\", \"policy\": \""
           << jsonEscape(r.result.policy)
           << "\", \"outstanding\": " << r.result.maxOutstanding
           << ", \"simCycles\": " << r.result.execTime
           << ", \"events\": " << r.eventsExecuted
           << ", \"wallSeconds\": " << jsonDouble(r.wallSeconds)
           << ", \"cyclesPerSec\": " << jsonDouble(r.cyclesPerSec)
           << ", \"eventsPerSec\": " << jsonDouble(r.eventsPerSec)
           << "}";
        if (i + 1 < results.size())
            os << ",";
        os << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace cmpcache
