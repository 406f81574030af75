#include "check/chaos.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "fault/fault_plan.hh"
#include "sim/config_io.hh"
#include "sim/simulation.hh"
#include "trace/trace_io.hh"
#include "trace/workload.hh"
#include "trace/workloads_stress.hh"

namespace cmpcache
{

namespace
{

/** Wall-clock budget shared by sampling and minimization. */
class Deadline
{
  public:
    explicit Deadline(double secs)
        : bounded_(secs > 0.0),
          until_(std::chrono::steady_clock::now()
                 + std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(
                         secs > 0.0 ? secs : 0.0)))
    {
    }

    bool expired() const
    {
        return bounded_
               && std::chrono::steady_clock::now() >= until_;
    }

  private:
    bool bounded_;
    std::chrono::steady_clock::time_point until_;
};

/** One drawn point of the chaos sample space. */
struct Sample
{
    SystemConfig cfg;
    WorkloadParams workload;
    std::uint64_t seed = 0;
    std::string summary;
};

struct RunOutcome
{
    bool failed = false;
    SimErrorKind kind = SimErrorKind::Internal;
    std::string message;
};

/**
 * Config-shaped errors are bugs in the sample space itself, not
 * findings; let them escape to the CLI as kind Config.
 */
bool
isFinding(SimErrorKind kind)
{
    return kind != SimErrorKind::Config && kind != SimErrorKind::Io;
}

RunOutcome
runWorkload(const SystemConfig &cfg, const WorkloadParams &wl)
{
    try {
        Simulation sim(cfg, wl);
        sim.run();
    } catch (const SimException &e) {
        if (!isFinding(e.error().kind))
            throw;
        return {true, e.error().kind, e.error().message};
    }
    return {};
}

RunOutcome
runTrace(const SystemConfig &cfg,
         const std::vector<TraceRecord> &records)
{
    try {
        Simulation sim(cfg,
                       splitByThread(records, cfg.numThreads()),
                       "chaos-repro");
        sim.run();
    } catch (const SimException &e) {
        if (!isFinding(e.error().kind))
            throw;
        return {true, e.error().kind, e.error().message};
    }
    return {};
}

/** Benign (non-test-only) fault kinds the sampler may inject. */
std::string
randomFaultWindows(Rng &rng)
{
    const unsigned count = static_cast<unsigned>(rng.below(3));
    std::string spec;
    for (unsigned i = 0; i < count; ++i) {
        const Tick from = rng.below(200000);
        const Tick until = from + 20000 + rng.below(180000);
        std::ostringstream w;
        switch (rng.below(6)) {
          case 0:
            w << "l3_retry:" << from << ":" << until << ":"
              << rng.inRange(100, 400);
            break;
          case 1:
            w << "nack:" << from << ":" << until << ":"
              << rng.inRange(50, 250);
            break;
          case 2:
            w << "delay:" << from << ":" << until << ":"
              << rng.inRange(2, 12);
            break;
          case 3:
            w << "drop_snarf:" << from << ":" << until << ":"
              << rng.inRange(200, 800);
            break;
          case 4:
            w << "disable_wbht:" << from << ":" << until;
            break;
          default:
            w << "disable_snarf:" << from << ":" << until;
            break;
        }
        if (!spec.empty())
            spec += ";";
        spec += w.str();
    }
    return spec;
}

Sample
drawSample(const ChaosOptions &opts, unsigned index)
{
    // splitmix-style per-sample stream: nearby master seeds and
    // sample indices land far apart.
    Rng rng(opts.seed * 0x9e3779b97f4a7c15ull
            + (index + 1) * 0xbf58476d1ce4e5b9ull);

    Sample s;
    s.seed = rng.next() | 1;

    // Machine shape: small enough to run thousands of samples, varied
    // enough to cover the thread-count dependent collector paths: one
    // draw in four is the 2-L2 machine, the rest the 4-L2 one.
    const bool two_l2s = rng.below(4) == 0;
    s.cfg.topology.cores = two_l2s ? 2 : 4;
    s.cfg.topology.l2s = two_l2s ? 2 : 4;
    s.cfg.topology.smt = 2;

    // The full conformance stack, always on; chaos runs start cold
    // (warmup would taint multi-holder lines out of oracle coverage).
    s.cfg.check.oracle = true;
    s.cfg.check.invariantsEvery = 4096;
    s.cfg.warmupPass = false;
    s.cfg.maxTicks = 100ull * 1000 * 1000;
    // A wedged protocol should diagnose itself, not eat the time box.
    s.cfg.watchdog.every = 200000;
    s.cfg.watchdog.stallChecks = 25;

    std::string plan;
    if (opts.withFaults)
        plan = randomFaultWindows(rng);
    if (!opts.extraFaultPlan.empty()) {
        if (!plan.empty())
            plan += ";";
        plan += opts.extraFaultPlan;
    }
    s.cfg.fault.plan = plan;
    s.cfg.fault.seed = rng.next() | 1;

    switch (rng.below(4)) {
      case 0:
        s.workload = workloads::producerConsumerStress(
            opts.recordsPerThread, s.seed,
            64ull << (2 * rng.below(3))); // 64 / 256 / 1024 lines
        break;
      case 1:
        s.workload = workloads::migratoryStress(
            opts.recordsPerThread, s.seed, 16ull << (2 * rng.below(2)));
        break;
      case 2:
        s.workload = workloads::falseSharingStress(
            opts.recordsPerThread, s.seed, 8ull << rng.below(3));
        break;
      default:
        s.workload = workloads::pingpongStress(
            opts.recordsPerThread, s.seed, 128ull << (2 * rng.below(2)));
        break;
    }
    // As in a sweep cell, the machine sets the thread count and the
    // line size.
    s.workload.numThreads = s.cfg.numThreads();
    s.workload.lineSize = s.cfg.l2.lineSize;

    std::ostringstream sum;
    sum << s.workload.name << " shared_lines="
        << s.workload.sharedLines << " cores="
        << s.cfg.topology.cores << "x" << s.cfg.topology.smt
        << " l2s=" << s.cfg.topology.l2s << " seed=" << s.seed
        << " fault.plan='"
        << s.cfg.fault.plan << "' fault.seed=" << s.cfg.fault.seed;
    s.summary = sum.str();
    return s;
}

/**
 * Budgeted failure predicate for the minimizer: every probe is a
 * full simulation, so both a run cap and the wall-clock deadline
 * bound it. An exhausted budget answers "does not fail", which makes
 * the minimizer keep its current (still-failing) candidate.
 */
class FailProbe
{
  public:
    FailProbe(SimErrorKind kind, unsigned max_runs,
              const Deadline &deadline)
        : kind_(kind), maxRuns_(max_runs), deadline_(deadline)
    {
    }

    bool exhausted() const
    {
        return runs_ >= maxRuns_ || deadline_.expired();
    }

    unsigned runs() const { return runs_; }

    bool operator()(const SystemConfig &cfg,
                    const std::vector<TraceRecord> &records)
    {
        if (exhausted())
            return false;
        ++runs_;
        const RunOutcome out = runTrace(cfg, records);
        return out.failed && out.kind == kind_;
    }

  private:
    SimErrorKind kind_;
    unsigned runs_ = 0;
    unsigned maxRuns_;
    const Deadline &deadline_;
};

/**
 * Zeller's ddmin over the interleaved record vector: repeatedly try
 * dropping one of n chunks; on success restart with coarser
 * granularity, otherwise refine until chunks are single records.
 */
std::vector<TraceRecord>
ddminTrace(const SystemConfig &cfg, std::vector<TraceRecord> records,
           std::size_t target, FailProbe &fails, std::ostream &log)
{
    std::size_t n = 2;
    while (records.size() >= 2 && records.size() > target
           && !fails.exhausted()) {
        const std::size_t chunk =
            (records.size() + n - 1) / n;
        bool reduced = false;
        for (std::size_t i = 0; i < n && !reduced; ++i) {
            const std::size_t lo = i * chunk;
            if (lo >= records.size())
                break;
            const std::size_t hi =
                std::min(records.size(), lo + chunk);
            std::vector<TraceRecord> candidate;
            candidate.reserve(records.size() - (hi - lo));
            candidate.insert(candidate.end(), records.begin(),
                             records.begin()
                                 + static_cast<std::ptrdiff_t>(lo));
            candidate.insert(candidate.end(),
                             records.begin()
                                 + static_cast<std::ptrdiff_t>(hi),
                             records.end());
            if (fails(cfg, candidate)) {
                records = std::move(candidate);
                n = n > 2 ? n - 1 : 2;
                reduced = true;
                log << "chaos: ddmin kept failure at "
                    << records.size() << " records ("
                    << fails.runs() << " runs)\n";
            }
        }
        if (!reduced) {
            if (n >= records.size())
                break;
            n = std::min(records.size(), n * 2);
        }
    }
    return records;
}

/**
 * Prune fault windows the failure does not need, then tighten the
 * survivors' cycle ranges by bisection.
 */
std::string
minimizeFaultPlan(SystemConfig cfg,
                  const std::vector<TraceRecord> &records,
                  FailProbe &fails, std::ostream &log)
{
    const auto parsed = parseFaultPlan(cfg.fault.plan);
    if (!parsed.ok() || parsed->empty())
        return cfg.fault.plan;
    FaultPlan plan = *parsed;

    const auto failsWith = [&](const FaultPlan &p) {
        SystemConfig c = cfg;
        c.fault.plan = formatFaultPlan(p);
        return fails(c, records);
    };

    // Drop whole windows.
    for (std::size_t i = 0; i < plan.windows.size();) {
        FaultPlan candidate = plan;
        candidate.windows.erase(
            candidate.windows.begin()
            + static_cast<std::ptrdiff_t>(i));
        if (failsWith(candidate)) {
            plan = std::move(candidate);
            log << "chaos: fault plan pruned to "
                << plan.windows.size() << " window(s)\n";
        } else {
            ++i;
        }
    }

    // Tighten each survivor (finite windows only).
    for (auto &w : plan.windows) {
        for (int round = 0; round < 6 && w.until != MaxTick; ++round) {
            const Tick len = w.until - w.from;
            if (len <= 1)
                break;
            FaultPlan candidate = plan;
            bool shrunk = false;
            // Halve from the tail, then from the head.
            for (auto &cw : candidate.windows) {
                if (cw.from == w.from && cw.until == w.until
                    && cw.kind == w.kind) {
                    cw.until = cw.from + len / 2;
                    break;
                }
            }
            if (failsWith(candidate)) {
                w.until = w.from + len / 2;
                shrunk = true;
            } else {
                candidate = plan;
                for (auto &cw : candidate.windows) {
                    if (cw.from == w.from && cw.until == w.until
                        && cw.kind == w.kind) {
                        cw.from = cw.until - len / 2;
                        break;
                    }
                }
                if (failsWith(candidate)) {
                    w.from = w.until - len / 2;
                    shrunk = true;
                }
            }
            if (!shrunk)
                break;
        }
    }
    return formatFaultPlan(plan);
}

} // namespace

ChaosReport
runChaos(const ChaosOptions &opts, std::ostream &log)
{
    const Deadline deadline(opts.timeBoxSecs);
    ChaosReport report;

    Sample failing;
    RunOutcome failure;
    for (unsigned i = 0; i < opts.samples; ++i) {
        if (deadline.expired()) {
            log << "chaos: time box closed after "
                << report.samplesRun << " sample(s)\n";
            break;
        }
        Sample s = drawSample(opts, i);
        log << "chaos: sample " << (i + 1) << "/" << opts.samples
            << " " << s.summary << "\n";
        ++report.samplesRun;
        const RunOutcome out = runWorkload(s.cfg, s.workload);
        if (!out.failed)
            continue;

        report.failed = true;
        report.failureKind = toString(out.kind);
        report.failureMessage = out.message;
        report.sampleSummary = s.summary;
        report.failingSeed = s.seed;
        failing = std::move(s);
        failure = out;
        log << "chaos: FAILURE (" << report.failureKind << ") on "
            << report.sampleSummary << "\n";
        break;
    }
    if (!report.failed) {
        log << "chaos: " << report.samplesRun
            << " sample(s), no conformance failures\n";
        return report;
    }

    // Reproduce the failure through the trace-driven path the
    // reproducer bundle will use; then minimize.
    std::vector<TraceRecord> records =
        SyntheticWorkload(failing.workload).materialize();
    report.originalRecords = records.size();

    FailProbe fails(failure.kind, opts.minimizeMaxRuns, deadline);
    if (!fails(failing.cfg, records)) {
        log << "chaos: warning: failure did not reproduce from the "
               "materialized trace; writing the unminimized bundle\n";
    } else if (opts.minimize) {
        records = ddminTrace(failing.cfg, std::move(records),
                             opts.minimizeTargetRecords, fails, log);
        failing.cfg.fault.plan = minimizeFaultPlan(
            failing.cfg, records, fails, log);
        log << "chaos: minimized " << report.originalRecords
            << " -> " << records.size() << " records in "
            << fails.runs() << " re-runs\n";
    }
    report.minimizedRecords = records.size();
    report.minimizedFaultPlan = failing.cfg.fault.plan;

    // Write the self-contained reproducer bundle.
    std::error_code ec;
    std::filesystem::create_directories(opts.reproDir, ec);
    if (ec) {
        log << "chaos: cannot create repro dir '" << opts.reproDir
            << "': " << ec.message() << "\n";
        return report;
    }
    report.reproTracePath = opts.reproDir + "/repro_trace.txt";
    report.reproConfigPath = opts.reproDir + "/repro.conf";
    const auto wrote = writeTraceFile(report.reproTracePath, records,
                                      TraceFormat::Text);
    if (!wrote.ok()) {
        log << "chaos: " << wrote.error().message << "\n";
        return report;
    }
    {
        std::ofstream os(report.reproConfigPath);
        if (!os) {
            log << "chaos: cannot write '" << report.reproConfigPath
                << "'\n";
            return report;
        }
        os << "# chaos reproducer: " << report.sampleSummary << "\n"
           << "# failure (" << report.failureKind << "): first line "
           << "of the original report below\n# "
           << report.failureMessage.substr(
                  0, report.failureMessage.find('\n'))
           << "\n";
        saveConfig(failing.cfg, os);
    }
    report.rerunCommand = cstr("cmpcache serve --trace=",
                               report.reproTracePath,
                               " --config=", report.reproConfigPath);
    report.reproWritten = true;
    log << "chaos: reproducer written (" << records.size()
        << " records); rerun with:\n  " << report.rerunCommand
        << "\n";
    return report;
}

} // namespace cmpcache
