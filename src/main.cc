/**
 * @file
 * cmpcache: the multi-tool driver. Subcommands:
 *
 *   sweep   run a {workloads} x {policies} x {outstanding} grid on a
 *           thread pool and emit deterministic JSON results plus an
 *           optional timing (bench) file
 *   serve   run one simulation: a trace streamed from a file, FIFO or
 *           stdin, or a synthetic generator, online with bounded
 *           memory, with optional stats dump and Perfetto trace
 *   chaos   seeded coherence fuzzing: adversarial sharing workloads x
 *           fault plans x topologies under the conformance oracle,
 *           with automatic reproducer minimization on failure
 *   list    print the available workloads and policies
 *   help    usage text; `help config` prints the effective
 *           configuration as a loadable config file
 *
 * sweep, serve and help config read the configuration the same way:
 * --config=FILE, then positional KEY=VALUE overrides (wl.* keys adjust
 * the workload), then --sample-every (and --trace-out turns tracing
 * on). sweep and serve write --trace-out/--stats-out files the same
 * way, one per cell.
 *
 * Examples:
 *
 *   # the paper grid: 4 workloads x 4 policies, deterministic output
 *   cmpcache sweep --out=results.json --threads=4
 *
 *   # stream a trace through a FIFO with ingest gauges
 *   mkfifo /tmp/t.fifo
 *   generator > /tmp/t.fifo &
 *   cmpcache serve --trace=/tmp/t.fifo --sample-every=5000 \
 *       --out=result.json
 *
 *   # a quick stress grid with invariant checking and a bench file
 *   cmpcache sweep --workloads=thrash,pingpong \
 *       --policies=baseline,combined --outstanding=2,6 \
 *       --refs=2000 --check-coherence \
 *       --bench-out=bench/BENCH_stress.json
 *
 *   # one cell with a full text stats dump and a Perfetto trace
 *   cmpcache serve --workload=Trade2 policy=combined \
 *       --stats-format=text --sample-every=1000 --trace-out=t.json
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "check/chaos.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "obs/time_series.hh"
#include "sim/config_io.hh"
#include "sim/result_json.hh"
#include "sim/simulation.hh"
#include "sim/sweep.hh"
#include "trace/trace_source.hh"
#include "trace/workload_config.hh"
#include "trace/workloads_commercial.hh"
#include "trace/workloads_stress.hh"

using namespace cmpcache;

namespace
{

/** Throw a SimException of @p kind; main() reports it. */
template <typename... Args>
[[noreturn]] void
fail(SimErrorKind kind, Args &&...args)
{
    throw SimException(kind, cstr(std::forward<Args>(args)...));
}

void
usage()
{
    std::cout <<
        "cmpcache -- CMP cache-hierarchy simulator (ISCA'05 repro)\n\n"
        "usage: cmpcache <subcommand> [options]\n\n"
        "subcommands:\n"
        "  sweep        run a workload x policy x outstanding grid\n"
        "  serve        run one simulation: a streamed trace\n"
        "               (file/FIFO/stdin) or a synthetic generator,\n"
        "               online with bounded memory\n"
        "  chaos        seeded coherence fuzzing under the conformance\n"
        "               oracle, with reproducer minimization on failure\n"
        "  list         print available workloads and policies\n"
        "  help         this text\n"
        "  help config  print the effective configuration (defaults,\n"
        "               --config, KEY=VALUE, --sample-every) as a\n"
        "               loadable config file, plus the wl.* keys\n\n"
        "configuration (sweep, serve, help config):\n"
        "  --config=FILE         base configuration file\n"
        "  KEY=VALUE             positional overrides of any config\n"
        "                        key; wl.* keys adjust the workload\n"
        "  --sample-every=N      sample observability probes every N\n"
        "                        cycles (0 = off, the default); adds\n"
        "                        a timeSeries block to the results\n\n"
        "outputs (sweep, serve):\n"
        "  --out=FILE            results JSON (default: stdout)\n"
        "  --trace-out=FILE      record coherence transactions and\n"
        "                        write a Chrome trace-event (Perfetto)\n"
        "                        JSON per cell; multi-cell grids get\n"
        "                        FILE.<cell-index> before the extension\n"
        "  --stats-format=F      capture a full stats dump per cell:\n"
        "                        text or json (default: none)\n"
        "  --stats-out=FILE      stats dump destination (per cell,\n"
        "                        like --trace-out; default: stderr);\n"
        "                        needs --stats-format\n"
        "  --quiet               suppress progress lines\n\n"
        "serve options:\n"
        "  --trace=PATH          stream a text or binary trace from a\n"
        "                        file or FIFO ('-' = stdin); decoded\n"
        "                        incrementally, never materialized\n"
        "  --workload=NAME       synthetic generator instead of a\n"
        "                        stream; only it takes --refs, --seed\n"
        "                        and wl.* keys (as for sweep)\n"
        "  The stream is decoded as the CPUs need records;\n"
        "  stream.demux_capacity bounds the records buffered for\n"
        "  threads that lag the stream. With sampling on, ingest\n"
        "  gauges (records decoded, ingest rate) join the probes\n\n"
        "sweep options:\n"
        "  --workloads=A,B,...   default: TP,CPW2,NotesBench,Trade2\n"
        "  --policies=a,b,...    default: baseline,wbht,snarf,"
        "combined\n"
        "  --outstanding=N,M     default: 6\n"
        "  --refs=N              references/thread (default 20000)\n"
        "  --seed=N              workload seed (default 1)\n"
        "  --threads=N           worker threads (default: hardware)\n"
        "  --bench-out=FILE      timing JSON, e.g. "
        "bench/BENCH_grid.json\n"
        "  --check-coherence     run the invariant checker per cell\n\n"
        "chaos options:\n"
        "  --seed=N              master seed (default 1); every\n"
        "                        sample derives its own stream\n"
        "  --samples=N           samples to draw (default 16); stops\n"
        "                        at the first failure\n"
        "  --refs=N              references/thread/sample (def. 1200)\n"
        "  --time-box=SECS       wall-clock budget over sampling and\n"
        "                        minimization (0 = unlimited)\n"
        "  --fault-plan=SPEC     extra fault windows appended to every\n"
        "                        sample (the forced-failure smoke\n"
        "                        injects wb_blind_spot here)\n"
        "  --no-faults           don't randomize benign fault windows\n"
        "  --no-minimize         report the failure without shrinking\n"
        "  --minimize-target=N   stop ddmin at N records (default 200)\n"
        "  --repro-dir=DIR       reproducer bundle dir (default\n"
        "                        chaos-repro)\n\n"
        "Integer options take plain decimal digits.\n"
        "exit codes: 0 ok, 1 bad arguments/config or internal error,\n"
        "2 coherence violations (sweep checker, serve conformance\n"
        "trip, or a chaos failure with its reproducer written),\n"
        "3 one or more sweep cells failed (failed cells appear as\n"
        "status:\"error\" in the results)\n";
}

/**
 * The configuration options sweep, serve and help config share:
 * --config=FILE, then the positional KEY=VALUE overrides from index
 * @p first on, then --sample-every; a non-empty --trace-out turns
 * transaction tracing on. Returns the wl.* overrides, in order.
 */
WorkloadOverrides
applyConfigArgs(const CliArgs &args, SystemConfig &cfg,
                std::size_t first = 0)
{
    if (args.has("config")) {
        orThrow(loadConfigFile(cfg, args.getString("config", "")));
    }
    WorkloadOverrides wl_overrides;
    const auto &positional = args.positional();
    for (std::size_t i = first; i < positional.size(); ++i) {
        const std::string &pos = positional[i];
        const auto eq = pos.find('=');
        if (eq == std::string::npos)
            fail(SimErrorKind::Config, "positional argument '", pos,
                 "' is not a key=value override");
        const std::string key = pos.substr(0, eq);
        const std::string value = pos.substr(eq + 1);
        if (isWorkloadKey(key))
            wl_overrides.emplace_back(key, value);
        else
            orThrow(applyConfigOption(cfg, key, value));
    }
    // CLI observability knobs override config-file obs.* keys.
    if (args.has("sample-every"))
        cfg.obs.sampleEvery = args.get<Tick>("sample-every", 0);
    if (!args.getString("trace-out", "").empty())
        cfg.obs.traceEnabled = true;
    return wl_overrides;
}

StatsFormat
statsFormatArg(const CliArgs &args)
{
    if (!args.has("stats-format")) {
        if (args.has("stats-out"))
            fail(SimErrorKind::Config,
                 "--stats-out needs --stats-format=text|json");
        return StatsFormat::None;
    }
    const std::string s = args.getString("stats-format", "");
    if (s == "text")
        return StatsFormat::Text;
    if (s == "json")
        return StatsFormat::Json;
    fail(SimErrorKind::Config, "--stats-format expects text|json, got '",
         s, "'");
}

/**
 * Per-cell output path: "trace.json" stays "trace.json" for a
 * single-cell grid and becomes "trace.3.json" for cell 3 of many.
 */
std::string
perCellPath(const std::string &base, std::size_t index,
            std::size_t total)
{
    if (total <= 1)
        return base;
    const auto dot = base.rfind('.');
    const auto slash = base.rfind('/');
    const bool has_ext =
        dot != std::string::npos
        && (slash == std::string::npos || dot > slash);
    if (!has_ext)
        return base + "." + std::to_string(index);
    return base.substr(0, dot) + "." + std::to_string(index)
           + base.substr(dot);
}

/**
 * The --trace-out and --stats-out files of @p cells, one per cell;
 * stats dumps go to stderr when --stats-out is not given. A failed
 * cell has no stats to dump, so it writes no stats file (its error is
 * in the results). @p cmd prefixes the progress lines.
 */
void
writeCellOutputs(const CliArgs &args, const char *cmd,
                 const std::vector<SweepJobResult> &cells, bool quiet)
{
    const std::string trace_out = args.getString("trace-out", "");
    const std::string stats_out = args.getString("stats-out", "");
    const bool stats = args.has("stats-format");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepJobResult &r = cells[i];
        if (!trace_out.empty()) {
            const auto path = perCellPath(trace_out, i, cells.size());
            std::ofstream os(path);
            if (!os)
                fail(SimErrorKind::Io, "cannot write trace file '", path,
                     "'");
            writeChromeTrace(os, r.trace,
                             r.samples.empty() ? nullptr : &r.samples);
            if (!quiet)
                inform(cmd, ": trace written to ", path);
        }
        if (!stats || !r.ok)
            continue;
        if (stats_out.empty()) {
            std::cerr << "# stats: cell " << i << "\n" << r.statsDump;
            continue;
        }
        const auto path = perCellPath(stats_out, i, cells.size());
        std::ofstream os(path);
        if (!os)
            fail(SimErrorKind::Io, "cannot write stats file '", path, "'");
        os << r.statsDump;
        if (!quiet)
            inform(cmd, ": stats written to ", path);
    }
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

int
listMain()
{
    std::cout << "commercial workloads:\n";
    for (const auto &w : workloads::allNames())
        std::cout << "  " << w << "\n";
    std::cout << "stress workloads:\n";
    for (const auto &w : workloads::stressNames())
        std::cout << "  " << w << "\n";
    std::cout << "policies:\n";
    for (const auto p : kAllWbPolicies)
        std::cout << "  " << toString(p) << "\n";
    return 0;
}

int
sweepMain(const CliArgs &args)
{
    SweepSpec spec;
    spec.workloads = splitCsv(args.getString(
        "workloads", "TP,CPW2,NotesBench,Trade2"));
    for (const auto &p : splitCsv(args.getString(
             "policies", "baseline,wbht,snarf,combined")))
        spec.policies.push_back(orThrow(wbPolicyFromString(p)));
    for (const auto &o : splitCsv(args.getString("outstanding", "6"))) {
        unsigned v = 0;
        if (!parseInto(v, "--outstanding", o) || v == 0)
            fail(SimErrorKind::Config,
                 "--outstanding values must be positive integers, got '",
                 o, "'");
        spec.outstanding.push_back(v);
    }
    spec.recordsPerThread = args.get("refs", std::uint64_t{20000});
    spec.seed = args.get("seed", std::uint64_t{1});
    spec.checkCoherence = args.get("check-coherence", false);
    spec.workloadOverrides = applyConfigArgs(args, spec.base);
    spec.statsFormat = statsFormatArg(args);

    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    const auto threads = args.get("threads", hw);
    if (threads == 0)
        fail(SimErrorKind::Config, "--threads must be positive");

    SweepProgressPrinter progress(std::cerr);
    const bool quiet = args.get("quiet", false);
    if (!quiet)
        inform("sweep: ", spec.size(), " jobs on ", threads,
               " threads (", spec.workloads.size(), " workloads x ",
               spec.policies.size(), " policies x ",
               spec.outstanding.size(), " outstanding)");

    const auto start = std::chrono::steady_clock::now();
    const auto results =
        runSweep(spec, threads, quiet ? nullptr : &progress);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

    const auto out = args.getString("out", "-");
    if (out == "-" || out.empty()) {
        writeSweepResultsJson(std::cout, spec, results);
    } else {
        std::ofstream os(out);
        if (!os)
            fail(SimErrorKind::Io, "cannot write results file '", out,
                 "'");
        writeSweepResultsJson(os, spec, results);
        if (!quiet)
            inform("sweep: results written to ", out);
    }
    writeCellOutputs(args, "sweep", results, quiet);

    if (args.has("bench-out")) {
        const auto path = args.getString("bench-out", "");
        std::ofstream os(path);
        if (!os)
            fail(SimErrorKind::Io, "cannot write bench file '", path, "'");
        writeSweepBenchJson(os, spec, results, threads, wall);
        if (!quiet)
            inform("sweep: bench timing written to ", path);
    }

    if (spec.checkCoherence) {
        std::uint64_t violations = 0;
        for (const auto &r : results)
            violations += r.coherenceViolations;
        if (violations) {
            warn("sweep: ", violations,
                 " coherence invariant violations");
            return 2;
        }
    }

    std::size_t failed = 0;
    for (const auto &r : results)
        if (!r.ok)
            ++failed;
    if (failed) {
        warn("sweep: ", failed, " of ", results.size(),
             " cells failed (status \"error\" in the results)");
        return 3;
    }
    return 0;
}

int
chaosMain(const CliArgs &args)
{
    ChaosOptions opts;
    opts.seed = args.get("seed", std::uint64_t{1});
    opts.samples = args.get("samples", 16u);
    if (opts.samples == 0)
        fail(SimErrorKind::Config, "--samples must be positive");
    opts.recordsPerThread = args.get("refs", std::uint64_t{1200});
    opts.timeBoxSecs =
        static_cast<double>(args.get("time-box", std::uint64_t{0}));
    opts.extraFaultPlan = args.getString("fault-plan", "");
    opts.withFaults = !args.get("no-faults", false);
    opts.minimize = !args.get("no-minimize", false);
    opts.minimizeTargetRecords =
        args.get("minimize-target", std::size_t{200});
    opts.reproDir = args.getString("repro-dir", "chaos-repro");

    const ChaosReport report = runChaos(opts, std::cerr);
    if (!report.failed)
        return 0;
    std::cerr << "chaos: failure (" << report.failureKind << "): "
              << report.failureMessage << "\n";
    if (report.reproWritten)
        std::cerr << "chaos: rerun: " << report.rerunCommand << "\n";
    return 2;
}

int
serveMain(const CliArgs &args)
{
    SystemConfig cfg;
    // serve is the live mode: ingest gauges default on (an explicit
    // obs.ingest=false override below still disables them).
    cfg.obs.ingestGauges = true;
    const WorkloadOverrides wl_overrides = applyConfigArgs(args, cfg);
    const StatsFormat stats_format = statsFormatArg(args);

    const std::string trace = args.getString("trace", "");
    const std::string workload = args.getString("workload", "");
    if (trace.empty() == workload.empty()) {
        fail(SimErrorKind::Config,
             "serve needs exactly one input: --trace=PATH|- or "
             "--workload=NAME");
    }
    // A stream brings its own records: the generator options would be
    // silently ignored.
    if (!trace.empty()) {
        for (const char *opt : {"refs", "seed"})
            if (args.has(opt))
                fail(SimErrorKind::Config, "serve: --", opt,
                     " needs --workload");
        if (!wl_overrides.empty())
            fail(SimErrorKind::Config, "serve: ",
                 wl_overrides.front().first, " needs --workload");
    }
    const auto refs = args.get("refs", std::uint64_t{20000});
    if (refs == 0)
        fail(SimErrorKind::Config, "serve: --refs must be positive");
    cfg.validate();

    const bool quiet = args.get("quiet", false);
    std::unique_ptr<Simulation> sim;
    if (!trace.empty()) {
        std::unique_ptr<std::istream> in;
        std::string name = trace;
        if (trace == "-") {
            in = std::make_unique<std::istream>(std::cin.rdbuf());
            name = "<stdin>";
        } else {
            auto f = std::make_unique<std::ifstream>(
                trace, std::ios::binary);
            if (!*f)
                fail(SimErrorKind::Io, "cannot open trace stream '",
                     trace, "'");
            in = std::move(f);
        }
        if (!quiet)
            inform("serve: streaming ", name, " (demux window ",
                   cfg.stream.demuxCapacity, " records)");
        sim = std::make_unique<Simulation>(cfg, std::move(in),
                                           std::move(name));
    } else {
        const auto params = resolveWorkload(
            workload, refs, args.get("seed", std::uint64_t{1}),
            wl_overrides, cfg);
        if (!quiet)
            inform("serve: synthetic ", workload, " generator, ",
                   params.recordsPerThread, " records/thread");
        sim = std::make_unique<Simulation>(cfg, params);
    }
    // A watchdog trip flushes whatever the tracer captured so the
    // hang can be inspected in Perfetto.
    sim->setWatchdogFlushPath(args.getString("trace-out", ""));

    std::vector<SweepJobResult> cells(1);
    SweepJobResult &cell = cells[0];
    cell.result = sim->run();

    const auto out = args.getString("out", "-");
    std::ofstream file;
    if (out != "-" && !out.empty()) {
        file.open(out);
        if (!file)
            fail(SimErrorKind::Io, "cannot write results file '", out,
                 "'");
    }
    std::ostream &os = file.is_open() ? file : std::cout;
    os << "{\n  \"schema\": \"cmpcache-serve-result-v1\",\n"
       << "  \"result\":\n";
    writeResultJson(os, cell.result, 2);
    if (sim->sampled()) {
        os << ",\n  \"timeSeries\":\n";
        writeSampleSeriesJson(os, sim->samples(), 2);
    }
    os << "\n}\n";

    cell.samples = sim->samples();
    cell.trace = sim->traceEvents();
    cell.statsDump = dumpStats(sim->system(), stats_format);
    writeCellOutputs(args, "serve", cells, quiet);

    if (!quiet) {
        if (const StreamIngest *ingest = sim->ingest())
            inform("serve: ingested ", ingest->recordsIngested(), " records");
        inform("serve: finished at tick ", cell.result.execTime,
               ", result written to ",
               file.is_open() ? out : std::string("stdout"));
    }
    return 0;
}

/**
 * `cmpcache help config`: the effective configuration in saveConfig
 * format, loadable again with --config, then the wl.* workload keys
 * as comments (they are KEY=VALUE overrides, not config-file keys).
 */
int
helpConfigMain(const CliArgs &args)
{
    SystemConfig cfg;
    const WorkloadOverrides wl_overrides =
        applyConfigArgs(args, cfg, /*first=*/1);
    // Echo only overrides that sweep and serve would accept.
    WorkloadParams parsed;
    for (const auto &[key, value] : wl_overrides)
        orThrow(applyWorkloadOption(parsed, key, value));
    saveConfig(cfg, std::cout);
    std::cout << "#\n# workload keys: KEY=VALUE overrides for sweep "
                 "and serve, not config-file keys\n";
    for (const auto &k : workloadConfigKeys())
        std::cout << "#   " << k << "\n";
    for (const auto &[key, value] : wl_overrides)
        std::cout << "# " << key << " = " << value << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
try {
    const CliArgs args(argc, argv, /*allow_subcommand=*/true);
    const std::string &cmd = args.subcommand();
    if (cmd == "help" && !args.positional().empty()
        && args.positional()[0] == "config") {
        args.requireKnown({"config", "sample-every"});
        return helpConfigMain(args);
    }
    if (cmd.empty() || cmd == "help" || args.get("help", false)) {
        usage();
        return cmd.empty() && !args.get("help", false) ? 1 : 0;
    }
    if (cmd == "sweep") {
        args.requireKnown({"workloads", "policies", "outstanding", "refs",
                           "seed", "threads", "out", "bench-out",
                           "check-coherence", "sample-every",
                           "trace-out", "stats-format", "stats-out",
                           "config", "quiet"});
        return sweepMain(args);
    }
    if (cmd == "serve") {
        args.requireKnown({"trace", "workload", "refs", "seed",
                           "sample-every", "trace-out",
                           "stats-format", "stats-out", "out", "config",
                           "quiet"});
        return serveMain(args);
    }
    if (cmd == "chaos") {
        args.requireKnown({"seed", "samples", "refs", "time-box",
                           "fault-plan", "no-faults", "no-minimize",
                           "minimize-target", "repro-dir"});
        return chaosMain(args);
    }
    if (cmd == "list") {
        args.requireKnown({});
        return listMain();
    }
    fail(SimErrorKind::Config, "unknown subcommand '", cmd,
         "' (expected sweep, serve, chaos, list or help)");
} catch (const SimException &e) {
    std::cerr << "error (" << toString(e.kind())
              << "): " << e.error().message << "\n";
    // A conformance trip on a replayed reproducer is the expected
    // outcome; give it the coherence exit code.
    return e.kind() == SimErrorKind::Conformance ? 2 : 1;
} catch (const std::exception &e) {
    std::cerr << "error (" << toString(SimErrorKind::Internal)
              << "): " << e.what() << "\n";
    return 1;
}
