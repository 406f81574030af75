/**
 * @file
 * cmpbench: the measuring half of the cmpcache benchmark (run.py is the
 * other half: it builds this binary, checks its outputs and prints the
 * metrics).
 *
 *   cmpbench --workload=paper-grid|scale-64c|serve-notes --seed=N [--trace]
 *
 * Runs one operation of the workload and prints one JSON report on
 * stdout: the operation's timings, its deterministic results text, and
 * the attempted/failed counts of the output checks made here. run.py
 * starts one process per operation and requires every process to
 * reproduce the first one's results byte for byte.
 *
 * With --trace each operation runs the workload twice: once through the
 * same entry point as the end-to-end run, and once through the public
 * entry points of each layer with a span around every call (trace
 * generation or decode, CmpSystem construction, functional warmup, run,
 * collectResult). Both runs must produce the same results. The report
 * then also carries the spans and the component counters summed from
 * the stats tree of every finished CmpSystem. Nothing inside the
 * simulator is instrumented; every number is taken from outside its
 * public API.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "sim/cmp_system.hh"
#include "sim/experiment.hh"
#include "sim/result_json.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "stats/stats.hh"
#include "trace/trace_io.hh"
#include "trace/workload.hh"

#ifndef CMPBENCH_BUILD_TYPE
#define CMPBENCH_BUILD_TYPE "unknown"
#endif
#ifndef CMPBENCH_COMPILER
#define CMPBENCH_COMPILER "unknown"
#endif

using namespace cmpcache;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/**
 * CPU seconds used by every thread of this process so far. The guest
 * kernel leaves out time the hypervisor gave the vCPU to another guest
 * (steal time), which wall time cannot.
 */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

// ---------------------------------------------------------------------
// JSON output helpers

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonNumbers(const std::vector<double> &vs)
{
    std::string out = "[";
    for (std::size_t i = 0; i < vs.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(vs[i]);
    return out + "]";
}

std::string
jsonStrings(const std::vector<std::string> &vs)
{
    std::string out = "[";
    for (std::size_t i = 0; i < vs.size(); ++i)
        out += (i ? ", " : "") + jsonString(vs[i]);
    return out + "]";
}

// ---------------------------------------------------------------------
// Spans

struct Span
{
    std::string name;
    unsigned trace = 0; ///< shared by every span of one cell
    int parent = -1;    ///< index within the same SpanLog, -1 = root
    double start = 0.0; ///< seconds since the operation began
    double end = 0.0;
};

/**
 * The spans of one cell (or one trace-generation job). Each log is
 * written by one thread only; logs are merged after the pool joins.
 */
class SpanLog
{
  public:
    SpanLog(Clock::time_point origin, unsigned trace)
        : origin_(origin), trace_(trace)
    {
    }

    int
    open(std::string name, int parent)
    {
        spans_.push_back({std::move(name), trace_, parent,
                          secondsSince(origin_), 0.0});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int id) { spans_[id].end = secondsSince(origin_); }

    double
    duration(int id) const
    {
        return spans_[id].end - spans_[id].start;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point origin_;
    unsigned trace_;
    std::vector<Span> spans_;
};

/** Closes its span on scope exit, so a throwing call still ends it. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name, int parent)
        : log_(log), id_(log.open(std::move(name), parent))
    {
    }
    ~ScopedSpan() { log_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

std::string
spansJson(const std::vector<SpanLog> &logs)
{
    std::string out = "[";
    std::size_t offset = 0;
    bool first = true;
    for (const auto &log : logs) {
        for (const auto &s : log.spans()) {
            out += first ? "\n    " : ",\n    ";
            first = false;
            const long parent =
                s.parent < 0 ? -1 : static_cast<long>(offset) + s.parent;
            out += "{\"name\": " + jsonString(s.name)
                   + ", \"trace\": " + std::to_string(s.trace)
                   + ", \"parent\": " + std::to_string(parent)
                   + ", \"start\": " + jsonNumber(s.start)
                   + ", \"end\": " + jsonNumber(s.end) + "}";
        }
        offset += log.spans().size();
    }
    return out + "]";
}

// ---------------------------------------------------------------------
// Counters from the stats tree

using Counters = std::map<std::string, double>;

/**
 * "system.l2_3.wbht.consulted" -> "l2.wbht.consulted": drop the root
 * group and the instance index of replicated components, so every
 * l2_N / cpu_N / l3_N instance sums into one key.
 */
std::string
componentKey(const std::string &path)
{
    std::string out;
    std::istringstream is(path);
    std::string part;
    bool root = true;
    while (std::getline(is, part, '.')) {
        if (root) {
            root = false;
            continue;
        }
        const auto us = part.rfind('_');
        if (us != std::string::npos && us + 1 < part.size()
            && part.find_first_not_of("0123456789", us + 1)
                   == std::string::npos)
            part.resize(us);
        out += (out.empty() ? "" : ".") + part;
    }
    return out;
}

/**
 * Add every counter of a finished system into @p c. Scalars sum;
 * averages and histograms contribute "<key>.sum" and "<key>.count" so
 * means can be recombined across instances and cells. Formulas are
 * live gauges or derived values and are read explicitly where needed.
 */
void
addCounters(const CmpSystem &sys, Counters &c)
{
    sys.forEachStat([&c](const std::string &path, const stats::Stat &s) {
        const std::string key = componentKey(path);
        if (const auto *sc = dynamic_cast<const stats::Scalar *>(&s)) {
            c[key] += static_cast<double>(sc->value());
        } else if (const auto *a =
                       dynamic_cast<const stats::Average *>(&s)) {
            c[key + ".sum"] += a->mean() * static_cast<double>(a->count());
            c[key + ".count"] += static_cast<double>(a->count());
        } else if (const auto *h =
                       dynamic_cast<const stats::Histogram *>(&s)) {
            c[key + ".sum"] += h->mean() * static_cast<double>(h->count());
            c[key + ".count"] += static_cast<double>(h->count());
        }
    });
}

std::string
countersJson(const Counters &c)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : c) {
        out += (first ? "" : ", ") + jsonString(k) + ": " + jsonNumber(v);
        first = false;
    }
    return out + "}";
}

// ---------------------------------------------------------------------
// Inputs

/** An istream over bytes the caller keeps alive; nothing is copied. */
class MemoryStream : public std::istream
{
  public:
    explicit MemoryStream(const std::string &bytes)
        : std::istream(nullptr), buf_(bytes)
    {
        rdbuf(&buf_);
    }

  private:
    struct Buf : std::streambuf
    {
        explicit Buf(const std::string &s)
        {
            // The get area is only ever read; streambuf wants char *.
            char *p = const_cast<char *>(s.data());
            setg(p, p, p + s.size());
        }
    };
    Buf buf_;
};

using ThreadRecords = std::vector<std::vector<TraceRecord>>;

/** One full generation pass, drained into per-thread vectors. */
ThreadRecords
generate(const WorkloadParams &params)
{
    TraceBundle bundle = SyntheticWorkload(params).makeBundle();
    ThreadRecords out(bundle.numThreads());
    for (unsigned t = 0; t < bundle.numThreads(); ++t) {
        out[t].reserve(params.recordsPerThread);
        TraceRecord r;
        while (bundle.perThread[t]->next(r))
            out[t].push_back(r);
    }
    return out;
}

TraceBundle
replayBundle(const ThreadRecords &recs)
{
    TraceBundle b;
    for (const auto &v : recs)
        b.perThread.push_back(std::make_unique<VectorSource>(v));
    return b;
}

std::uint64_t
recordCount(const ThreadRecords &recs)
{
    std::uint64_t n = 0;
    for (const auto &v : recs)
        n += v.size();
    return n;
}

/**
 * Encode as an open-ended binary stream, records interleaved
 * round-robin across threads (SyntheticWorkload::materialize order) --
 * what a live producer feeding `cmpcache serve` writes.
 */
std::string
encodeStream(const ThreadRecords &recs)
{
    std::ostringstream os;
    writeStreamingTraceHeader(os);
    std::size_t longest = 0;
    for (const auto &v : recs)
        longest = std::max(longest, v.size());
    for (std::size_t i = 0; i < longest; ++i)
        for (const auto &v : recs)
            if (i < v.size())
                appendTraceRecord(os, v[i]);
    return os.str();
}

// ---------------------------------------------------------------------
// Workloads

enum class Workload
{
    PaperGrid,
    Scale64c,
    ServeNotes,
};

Workload
workloadFromString(const std::string &s)
{
    if (s == "paper-grid")
        return Workload::PaperGrid;
    if (s == "scale-64c")
        return Workload::Scale64c;
    if (s == "serve-notes")
        return Workload::ServeNotes;
    throw std::invalid_argument("unknown workload '" + s
                                + "' (paper-grid, scale-64c, serve-notes)");
}

/** The paper's grid, exactly as `cmpcache sweep` runs it by default. */
SweepSpec
paperGridSpec(std::uint64_t seed)
{
    SweepSpec spec;
    spec.workloads = {"TP", "CPW2", "NotesBench", "Trade2"};
    spec.policies = {WbPolicy::Baseline, WbPolicy::Wbht, WbPolicy::Snarf,
                     WbPolicy::Combined};
    spec.outstanding = {6};
    spec.recordsPerThread = 20000;
    spec.seed = seed;
    return spec;
}

/** bench/scale.cpp's 64-core cell: 16 L2s, 16 L3 slices, thrash. */
SweepSpec
scaleSpec(std::uint64_t seed)
{
    SweepSpec spec;
    spec.workloads = {"thrash"};
    spec.policies = {WbPolicy::Combined};
    spec.outstanding = {6};
    spec.recordsPerThread = 8000;
    spec.seed = seed;
    spec.base.topology.cores = 64;
    spec.base.topology.smt = 1;
    spec.base.topology.l2s = 16;
    spec.base.topology.l3Slices = 16;
    spec.base.policy.retry.windowCycles = 250000;
    spec.base.policy.retry.threshold = 100;
    return spec;
}

/** NotesBench under the baseline policy, as `cmpcache serve` runs it. */
SweepSpec
serveSpec(std::uint64_t seed)
{
    SweepSpec spec;
    spec.workloads = {"NotesBench"};
    spec.policies = {WbPolicy::Baseline};
    spec.outstanding = {6};
    spec.recordsPerThread = 20000;
    spec.seed = seed;
    spec.base.warmupPass = false;
    spec.base.obs.ingestGauges = true;
    return spec;
}

/** What Simulation's synthetic constructor does to the config. */
SystemConfig
resolvedConfig(const SweepJob &job)
{
    SystemConfig cfg = job.config;
    cfg.l2.lineSize = job.params.lineSize;
    cfg.l3.lineSize = job.params.lineSize;
    return cfg;
}

/**
 * Runs @p fn(i) for i in [0, n) on @p workers threads. The first
 * exception any call throws is rethrown here once every thread joined.
 */
template <class Fn>
void
parallelFor(std::size_t n, unsigned workers, Fn &&fn)
{
    std::atomic<std::size_t> next{0};
    std::mutex mtx;
    std::exception_ptr first_error; // guarded by mtx
    const auto body = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mtx);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    {
        std::vector<std::jthread> pool;
        for (unsigned w = 1; w < workers; ++w)
            pool.emplace_back(body);
        body();
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

/** Tally of every output check one operation made. */
struct Checked
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    fail(std::string why)
    {
        ++failed;
        if (errors.size() < 8)
            errors.push_back(std::move(why));
    }
};

/**
 * A traced cell: build, warm, run and collect through the public
 * entry points Simulation's constructors call, one span each.
 */
struct TracedCell
{
    std::string resultJson;
    Counters counters;
    double events = 0.0;
    double totalSeconds = 0.0;
};

TracedCell
runTracedCell(SpanLog &log, const std::string &cell_name,
              const SystemConfig &cfg, const std::string &input_name,
              const std::function<TraceBundle()> &make_bundle,
              const ThreadRecords *warmup)
{
    TracedCell out;
    int cell_id = -1;
    {
        ScopedSpan cell(log, "cell:" + cell_name, -1);
        cell_id = cell.id();
        TraceBundle timed;
        TraceBundle warm;
        {
            ScopedSpan s(log, "trace.replay", cell_id);
            timed = make_bundle();
            if (warmup)
                warm = replayBundle(*warmup);
        }
        std::unique_ptr<CmpSystem> sys;
        {
            ScopedSpan s(log, "sim.build", cell_id);
            sys = std::make_unique<CmpSystem>(cfg, std::move(timed));
        }
        if (warmup) {
            ScopedSpan s(log, "sim.warmup", cell_id);
            sys->functionalWarmup(std::move(warm));
        }
        Tick finish = 0;
        {
            ScopedSpan s(log, "sim.run", cell_id);
            finish = sys->run();
        }
        {
            ScopedSpan s(log, "sim.collect", cell_id);
            out.resultJson =
                resultToJson(collectResult(*sys, finish, input_name));
        }
        {
            ScopedSpan s(log, "stats.read", cell_id);
            addCounters(*sys, out.counters);
            out.events = static_cast<double>(sys->totalExecuted());
            // Derived from the topology, not counted: the ring offers
            // every request to every bus agent but its requester.
            out.counters["derived.ring.snoops"] =
                out.counters["ring.requests"]
                * (sys->topology().numAgents() - 1);
        }
        ScopedSpan s(log, "sim.teardown", cell_id);
        sys.reset();
    }
    out.totalSeconds = log.duration(cell_id);
    return out;
}

/** Everything one operation measured. */
struct OpReport
{
    double wallSeconds = 0.0;
    /** CPU seconds of all threads over the same interval as wallSeconds. */
    double cpuTimeSeconds = 0.0;
    /** CPU seconds of all threads inside the Simulation constructor. */
    double setupSeconds = 0.0;
    std::uint64_t refs = 0;
    std::vector<double> cellSeconds;
    /** Deterministic results text. */
    std::string results;

    // Traced runs only.
    bool traced = false;
    std::vector<SpanLog> logs;
    Counters counters;
    double events = 0.0;
    double genRecords = 0.0;
    double decodeRecords = 0.0;
    double tracedWallSeconds = 0.0;
    std::vector<double> tracedCellSeconds;
    double producerWaits = 0.0;
    double dropped = 0.0;
};

std::string
errorText(const std::exception &e)
{
    if (const auto *se = dynamic_cast<const SimException *>(&e))
        return std::string(toString(se->error().kind)) + ": "
               + se->error().message;
    return e.what();
}

// --- paper-grid ------------------------------------------------------

OpReport
paperGridOp(const SweepSpec &spec, unsigned workers, bool trace,
            Checked &chk)
{
    OpReport op;
    const std::vector<SweepJob> jobs = spec.expand();

    if (!trace) {
        // Set-up probe: the Simulation constructor (system build,
        // functional warmup with its generation passes) of each
        // workload's first cell, serially, before the first tick.
        double setup = 0.0;
        unsigned probes = 0;
        for (std::size_t i = 0; i < jobs.size();
             i += spec.policies.size() * spec.outstanding.size()) {
            const double cpu0 = processCpuSeconds();
            Simulation sim(jobs[i].config, jobs[i].params);
            setup += processCpuSeconds() - cpu0;
            ++probes;
        }
        op.setupSeconds = setup / probes;
    }

    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    const std::vector<SweepJobResult> results = runSweep(spec, workers);
    op.wallSeconds = secondsSince(t0);
    op.cpuTimeSeconds = processCpuSeconds() - cpu0;

    std::ostringstream os;
    writeSweepResultsJson(os, spec, results);
    op.results = os.str();
    std::vector<std::string> cell_results;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SweepJobResult &r = results[i];
        ++chk.attempted;
        op.cellSeconds.push_back(r.wallSeconds);
        cell_results.push_back(r.ok ? resultToJson(r.result) : "");
        if (!r.ok)
            chk.fail(jobs[i].label() + ": " + r.errorKind + ": "
                     + r.error);
        op.refs += std::uint64_t{jobs[i].params.numThreads}
                   * jobs[i].params.recordsPerThread;
    }
    if (!trace)
        return op;

    // Traced pass over the same grid and pool: each distinct trace is
    // generated once, then replayed into every cell that uses it.
    op.traced = true;
    const auto origin = Clock::now();
    const std::size_t per_workload =
        spec.policies.size() * spec.outstanding.size();
    std::vector<ThreadRecords> traces(spec.workloads.size());
    for (std::size_t w = 0; w < spec.workloads.size(); ++w)
        op.logs.emplace_back(origin, static_cast<unsigned>(w));
    parallelFor(spec.workloads.size(), workers, [&](std::size_t w) {
        SpanLog &log = op.logs[w];
        ScopedSpan root(log, "workload:" + spec.workloads[w], -1);
        ScopedSpan s(log, "trace.gen", root.id());
        traces[w] = generate(jobs[w * per_workload].params);
    });
    for (const auto &t : traces)
        op.genRecords += static_cast<double>(recordCount(t));

    const std::size_t first_cell_log = op.logs.size();
    for (std::size_t i = 0; i < jobs.size(); ++i)
        op.logs.emplace_back(origin, static_cast<unsigned>(
                                         spec.workloads.size() + i));
    std::vector<TracedCell> cells(jobs.size());
    std::vector<std::string> errors(jobs.size());
    parallelFor(jobs.size(), workers, [&](std::size_t i) {
        const ThreadRecords &recs = traces[i / per_workload];
        const SystemConfig cfg = resolvedConfig(jobs[i]);
        try {
            cells[i] = runTracedCell(
                op.logs[first_cell_log + i], jobs[i].label(), cfg,
                jobs[i].params.name, [&recs] { return replayBundle(recs); },
                cfg.warmupPass ? &recs : nullptr);
        } catch (const std::exception &e) {
            errors[i] = errorText(e);
        }
    });
    op.tracedWallSeconds = secondsSince(origin);

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ++chk.attempted;
        if (!errors[i].empty()) {
            chk.fail("traced " + jobs[i].label() + ": " + errors[i]);
            continue;
        }
        if (cells[i].resultJson != cell_results[i])
            chk.fail("traced " + jobs[i].label()
                     + " differs from its sweep cell");
        for (const auto &[k, v] : cells[i].counters)
            op.counters[k] += v;
        op.events += cells[i].events;
        op.tracedCellSeconds.push_back(cells[i].totalSeconds);
    }
    return op;
}

// --- scale-64c -------------------------------------------------------

OpReport
scaleOp(const SweepSpec &spec, bool trace, Checked &chk)
{
    OpReport op;
    const SweepJob job = spec.expand().at(0);
    op.refs = static_cast<std::uint64_t>(job.params.numThreads)
              * job.params.recordsPerThread;

    ++chk.attempted;
    try {
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        {
            Simulation sim(job.config, job.params);
            op.setupSeconds = processCpuSeconds() - cpu0;
            op.results = resultToJson(sim.run());
        }
        op.wallSeconds = secondsSince(t0);
        op.cpuTimeSeconds = processCpuSeconds() - cpu0;
    } catch (const std::exception &e) {
        chk.fail(job.label() + ": " + errorText(e));
    }
    op.cellSeconds = {op.wallSeconds};
    if (!trace)
        return op;

    op.traced = true;
    ++chk.attempted;
    const auto origin = Clock::now();
    op.logs.emplace_back(origin, 0);
    op.logs.emplace_back(origin, 1);
    try {
        ThreadRecords recs;
        {
            ScopedSpan root(op.logs[0], "workload:" + job.workload, -1);
            ScopedSpan s(op.logs[0], "trace.gen", root.id());
            recs = generate(job.params);
        }
        op.genRecords = static_cast<double>(recordCount(recs));
        const SystemConfig cfg = resolvedConfig(job);
        TracedCell cell = runTracedCell(
            op.logs[1], job.label(), cfg, job.params.name,
            [&recs] { return replayBundle(recs); },
            cfg.warmupPass ? &recs : nullptr);
        op.tracedWallSeconds = secondsSince(origin);
        if (cell.resultJson != op.results)
            chk.fail("traced " + job.label()
                     + " differs from the end-to-end run");
        op.counters = std::move(cell.counters);
        op.events = cell.events;
        op.tracedCellSeconds = {cell.totalSeconds};
    } catch (const std::exception &e) {
        chk.fail("traced " + job.label() + ": " + errorText(e));
    }
    return op;
}

// --- serve-notes -----------------------------------------------------

struct ServeInput
{
    SweepJob job;
    std::string bytes; ///< the encoded stream, held in memory
    std::uint64_t records = 0;
    double genSeconds = 0.0;
    double encodeSeconds = 0.0;
};

ServeInput
prepareServe(const SweepSpec &spec)
{
    ServeInput in{spec.expand().at(0), {}, 0, 0.0, 0.0};
    auto t0 = Clock::now();
    const ThreadRecords recs = generate(in.job.params);
    in.genSeconds = secondsSince(t0);
    in.records = recordCount(recs);
    t0 = Clock::now();
    in.bytes = encodeStream(recs);
    in.encodeSeconds = secondsSince(t0);
    return in;
}

/** Decode the held stream in batch and replay it, traced. */
TracedCell
serveBatchReplay(const ServeInput &in, SpanLog &log,
                 double &decoded_records)
{
    const SystemConfig cfg = resolvedConfig(in.job); // warmup is off
    std::vector<TraceRecord> records;
    {
        ScopedSpan root(log, "workload:" + in.job.workload, -1);
        ScopedSpan s(log, "trace.decode", root.id());
        MemoryStream is(in.bytes);
        auto decoded = readTrace(is);
        if (!decoded.ok())
            throw SimException(decoded.error());
        records = std::move(*decoded);
    }
    decoded_records = static_cast<double>(records.size());
    return runTracedCell(
        log, in.job.label(), cfg, in.job.params.name,
        [&] { return splitByThread(records, cfg.numThreads()); },
        nullptr);
}

OpReport
serveOp(const ServeInput &in, bool trace, Checked &chk)
{
    OpReport op;
    op.refs = in.records;
    ++chk.attempted;
    try {
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        {
            Simulation sim(in.job.config,
                           std::make_unique<MemoryStream>(in.bytes),
                           in.job.params.name);
            op.setupSeconds = processCpuSeconds() - cpu0;
            op.results = resultToJson(sim.run());
            const auto gauge = [&sim](const char *path) {
                const stats::Stat *s = sim.system().find(path);
                return s ? s->sampledValue() : -1.0;
            };
            op.producerWaits = gauge("ingest.producer_waits");
            op.dropped = gauge("ingest.dropped");
            if (gauge("ingest.ingested") != double(in.records)
                || op.dropped != 0.0)
                chk.fail("stream ingested "
                         + jsonNumber(gauge("ingest.ingested")) + " of "
                         + std::to_string(in.records) + " records, "
                         + jsonNumber(op.dropped) + " dropped");
        }
        op.wallSeconds = secondsSince(t0);
        op.cpuTimeSeconds = processCpuSeconds() - cpu0;
    } catch (const std::exception &e) {
        chk.fail(in.job.label() + " streamed: " + errorText(e));
    }
    op.cellSeconds = {op.wallSeconds};

    // The serve contract: a streamed run equals the batch replay of the
    // same records. Checked on every run; traced runs also report the
    // replay's spans and counters.
    op.traced = trace;
    ++chk.attempted;
    const auto origin = Clock::now();
    op.logs.emplace_back(origin, 0);
    try {
        TracedCell cell = serveBatchReplay(in, op.logs[0], op.decodeRecords);
        op.tracedWallSeconds = secondsSince(origin);
        if (cell.resultJson != op.results)
            chk.fail("batch replay differs from the streamed run");
        op.counters = std::move(cell.counters);
        op.events = cell.events;
        op.tracedCellSeconds = {cell.totalSeconds};
    } catch (const std::exception &e) {
        chk.fail(in.job.label() + " batch replay: " + errorText(e));
    }
    return op;
}

// ---------------------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
opJson(const OpReport &op)
{
    std::string out = "{\"wall_s\": " + jsonNumber(op.wallSeconds)
                      + ", \"cpu_time_s\": " + jsonNumber(op.cpuTimeSeconds)
                      + ", \"setup_s\": " + jsonNumber(op.setupSeconds)
                      + ", \"refs\": " + std::to_string(op.refs)
                      + ", \"cell_s\": " + jsonNumbers(op.cellSeconds);
    if (op.traced) {
        out += ", \"traced\": {\"wall_s\": "
               + jsonNumber(op.tracedWallSeconds)
               + ", \"cell_s\": " + jsonNumbers(op.tracedCellSeconds)
               + ", \"events\": " + jsonNumber(op.events)
               + ", \"gen_recs\": " + jsonNumber(op.genRecords)
               + ", \"decode_recs\": " + jsonNumber(op.decodeRecords)
               + ", \"ingest_producer_waits\": "
               + jsonNumber(op.producerWaits)
               + ", \"ingest_dropped\": " + jsonNumber(op.dropped)
               + ", \"counters\": " + countersJson(op.counters)
               + ", \"spans\": " + spansJson(op.logs) + "}";
    }
    return out + "}";
}

struct Options
{
    Workload workload = Workload::PaperGrid;
    std::string workloadName;
    std::uint64_t seed = 1;
    bool trace = false;
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto eq = a.find('=');
        const std::string key = a.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : a.substr(eq + 1);
        if (key == "--workload") {
            o.workloadName = val;
            o.workload = workloadFromString(val);
        } else if (key == "--seed") {
            o.seed = std::stoull(val);
        } else if (key == "--trace") {
            o.trace = true;
        } else {
            throw std::invalid_argument("unknown argument '" + a + "'");
        }
    }
    if (o.workloadName.empty())
        throw std::invalid_argument("--workload=NAME is required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        opt = parseOptions(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "cmpbench: " << e.what() << "\n";
        return 2;
    }

    Checked chk;
    OpReport op;
    std::string prepare = "{}";
    unsigned workers = 1;
    try {
        switch (opt.workload) {
          case Workload::PaperGrid:
            workers =
                std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
            op = paperGridOp(paperGridSpec(opt.seed), workers, opt.trace,
                             chk);
            break;
          case Workload::Scale64c:
            op = scaleOp(scaleSpec(opt.seed), opt.trace, chk);
            break;
          case Workload::ServeNotes: {
            const ServeInput serve = prepareServe(serveSpec(opt.seed));
            prepare = "{\"gen_s\": " + jsonNumber(serve.genSeconds)
                      + ", \"encode_s\": " + jsonNumber(serve.encodeSeconds)
                      + ", \"records\": " + std::to_string(serve.records)
                      + ", \"bytes\": " + std::to_string(serve.bytes.size())
                      + "}";
            op = serveOp(serve, opt.trace, chk);
            break;
          }
        }
    } catch (const std::exception &e) {
        // Failures of the simulated work are counted where they happen;
        // this is the benchmark's own set-up failing.
        std::cerr << "cmpbench: " << errorText(e) << "\n";
        return 1;
    }

    std::cout << "{\n  \"workload\": " << jsonString(opt.workloadName)
              << ",\n  \"seed\": " << opt.seed
              << ",\n  \"trace\": " << (opt.trace ? "true" : "false")
              << ",\n  \"host\": {\"nproc\": "
              << std::thread::hardware_concurrency()
              << ", \"cpu_model\": " << jsonString(cpuModel())
              << ", \"compiler\": " << jsonString(CMPBENCH_COMPILER)
              << ", \"build_type\": " << jsonString(CMPBENCH_BUILD_TYPE)
              << ", \"workers\": " << workers << "}"
              << ",\n  \"prepare\": " << prepare
              << ",\n  \"peak_rss_mb\": " << jsonNumber(peakRssMb())
              << ",\n  \"attempted\": " << chk.attempted
              << ",\n  \"failed\": " << chk.failed
              << ",\n  \"errors\": " << jsonStrings(chk.errors)
              << ",\n  \"results\": " << jsonString(op.results)
              << ",\n  \"op\": " << opJson(op) << "\n}\n";
    return 0;
}
