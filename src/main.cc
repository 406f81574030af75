/**
 * @file
 * cmpcache: the multi-tool driver. Subcommands:
 *
 *   sweep   run a {workloads} x {policies} x {outstanding} grid on a
 *           thread pool and emit deterministic JSON results plus an
 *           optional timing (bench) file
 *   serve   simulate a trace streamed from a file, FIFO or stdin
 *           (or a synthetic generator) online with bounded memory,
 *           under an open- or closed-loop arrival model
 *   chaos   seeded coherence fuzzing: adversarial sharing workloads x
 *           fault plans x topologies under the conformance oracle,
 *           with automatic reproducer minimization on failure
 *   list    print the available workloads and policies
 *   help    usage text
 *
 * Examples:
 *
 *   # the paper grid: 4 workloads x 4 policies, deterministic output
 *   cmpcache sweep --out=results.json --threads=4
 *
 *   # stream a trace through a FIFO with live ingest gauges
 *   mkfifo /tmp/t.fifo
 *   generator > /tmp/t.fifo &
 *   cmpcache serve --trace=/tmp/t.fifo --sample-every=5000 \
 *       --arrival=open:0.02 --out=result.json
 *
 *   # a quick stress grid with invariant checking and a bench file
 *   cmpcache sweep --workloads=thrash,pingpong \
 *       --policies=baseline,combined --outstanding=2,6 \
 *       --refs=2000 --check-coherence \
 *       --bench-out=bench/BENCH_stress.json
 *
 * Single-cell runs with full stats dumps remain the job of
 * examples/cmpsim.
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

void
usage()
{
    std::cout <<
        "cmpcache -- CMP cache-hierarchy simulator (ISCA'05 repro)\n\n"
        "usage: cmpcache <subcommand> [options]\n\n"
        "subcommands:\n"
        "  sweep   run a workload x policy x outstanding grid\n"
        "  serve   simulate a streamed trace (file/FIFO/stdin) or a\n"
        "          synthetic generator online with bounded memory\n"
        "  chaos   seeded coherence fuzzing under the conformance\n"
        "          oracle, with reproducer minimization on failure\n"
        "  list    print available workloads and policies\n"
        "  help    this text\n\n"
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
        "serve options:\n"
        "  --trace=PATH          stream a text or binary trace from a\n"
        "                        file or FIFO ('-' = stdin); decoded\n"
        "                        incrementally, never materialized\n"
        "  --workload=NAME       synthetic generator instead of a\n"
        "                        stream (--refs/--seed as for sweep)\n"
        "  --arrival=SPEC        closed (default) or open:<rate>;\n"
        "                        rate = mean arrivals/tick/thread,\n"
        "                        e.g. open:0.02 (arrival.* keys tune\n"
        "                        bursts and the sampler seed)\n"
        "  --sample-every=N      sample obs probes plus live ingest\n"
        "                        gauges (queue depth, ingest rate,\n"
        "                        drops) every N cycles\n"
        "  --out=FILE            result JSON (default: stdout);\n"
        "                        includes a timeSeries block when\n"
        "                        sampling is on\n"
        "  --config=FILE, KEY=VALUE  as for sweep; stream.* keys set\n"
        "                        queue capacity and the block|drop\n"
        "                        backpressure policy\n"
        "  --quiet               suppress progress lines\n\n"
        "sweep options:\n"
        "  --workloads=A,B,...   default: TP,CPW2,NotesBench,Trade2\n"
        "  --policies=a,b,...    default: baseline,wbht,snarf,"
        "combined\n"
        "  --outstanding=N,M     default: 6\n"
        "  --refs=N              references/thread (default 20000,\n"
        "                        or CMPCACHE_REFS)\n"
        "  --seed=N              workload seed (default 1)\n"
        "  --threads=N           worker threads (default: hardware)\n"
        "  --out=FILE            results JSON (default: stdout)\n"
        "  --bench-out=FILE      timing JSON, e.g. "
        "bench/BENCH_grid.json\n"
        "  --check-coherence     run the invariant checker per cell\n"
        "  --sample-every=N      sample observability probes every N\n"
        "                        cycles (0 = off, the default); adds\n"
        "                        a timeSeries block to the results\n"
        "  --trace-out=FILE      record coherence transactions and\n"
        "                        write a Chrome trace-event (Perfetto)\n"
        "                        JSON per cell; multi-cell grids get\n"
        "                        FILE.<cell-index> before the extension\n"
        "  --stats-format=F      capture a full stats dump per cell:\n"
        "                        text, csv or json (default: none)\n"
        "  --stats-out=FILE      stats dump destination (per cell,\n"
        "                        like --trace-out; default: stderr)\n"
        "  --config=FILE         base configuration file\n"
        "  KEY=VALUE             positional base-config overrides;\n"
        "                        wl.* keys adjust every cell's "
        "workload\n"
        "  --quiet               suppress progress lines\n\n"
        "exit codes: 0 ok, 1 bad arguments/config or internal error,\n"
        "2 coherence violations (sweep checker, serve conformance\n"
        "trip, or a chaos failure with its reproducer written),\n"
        "3 one or more sweep cells failed (failed cells appear as\n"
        "status:\"error\" in the results)\n";
}

StatsFormat
statsFormatFromString(const std::string &s)
{
    if (s == "text")
        return StatsFormat::Text;
    if (s == "csv")
        return StatsFormat::Csv;
    if (s == "json")
        return StatsFormat::Json;
    cmp_fatal("--stats-format expects text|csv|json, got '", s, "'");
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
    for (const auto p :
         {WbPolicy::Baseline, WbPolicy::Wbht, WbPolicy::WbhtGlobal,
          WbPolicy::Snarf, WbPolicy::Combined})
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
        spec.policies.push_back(wbPolicyFromString(p));
    for (const auto &o : splitCsv(args.getString("outstanding", "6"))) {
        std::int64_t v = 0;
        try {
            v = std::stoll(o);
        } catch (...) {
            cmp_fatal("--outstanding expects integers, got '", o, "'");
        }
        if (v <= 0)
            cmp_fatal("--outstanding values must be positive, got '",
                      o, "'");
        spec.outstanding.push_back(static_cast<unsigned>(v));
    }
    spec.recordsPerThread = static_cast<std::uint64_t>(args.getInt(
        "refs",
        static_cast<std::int64_t>(benchRecordsPerThread(20000))));
    spec.seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    spec.checkCoherence = args.getBool("check-coherence", false);

    if (args.has("config")) {
        const auto loaded =
            loadConfigFile(spec.base, args.getString("config", ""));
        if (!loaded.ok())
            cmp_fatal(loaded.error().message);
    }
    for (const auto &pos : args.positional()) {
        const auto eq = pos.find('=');
        if (eq == std::string::npos)
            cmp_fatal("positional argument '", pos,
                      "' is not a key=value override");
        const std::string key = pos.substr(0, eq);
        const std::string value = pos.substr(eq + 1);
        if (isWorkloadKey(key)) {
            spec.workloadOverrides.emplace_back(key, value);
        } else {
            const auto applied =
                applyConfigOption(spec.base, key, value);
            if (!applied.ok())
                cmp_fatal(applied.error().message);
        }
    }

    // CLI observability knobs override config-file obs.* keys.
    if (args.has("sample-every")) {
        const auto every = args.getInt("sample-every", 0);
        if (every < 0)
            cmp_fatal("--sample-every must be >= 0");
        spec.base.obs.sampleEvery = static_cast<Tick>(every);
    }
    const std::string trace_out = args.getString("trace-out", "");
    if (!trace_out.empty())
        spec.base.obs.traceEnabled = true;
    if (args.has("stats-format"))
        spec.statsFormat = statsFormatFromString(
            args.getString("stats-format", ""));
    const std::string stats_out = args.getString("stats-out", "");

    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    const auto threads = static_cast<unsigned>(
        args.getInt("threads", static_cast<std::int64_t>(hw)));
    if (threads == 0)
        cmp_fatal("--threads must be positive");

    SweepProgressPrinter progress(std::cerr);
    const bool quiet = args.getBool("quiet", false);
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
            cmp_fatal("cannot write results file '", out, "'");
        writeSweepResultsJson(os, spec, results);
        if (!quiet)
            inform("sweep: results written to ", out);
    }

    if (!trace_out.empty()) {
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto path =
                perCellPath(trace_out, i, results.size());
            std::ofstream os(path);
            if (!os)
                cmp_fatal("cannot write trace file '", path, "'");
            const auto &r = results[i];
            writeChromeTrace(os, r.trace,
                             r.samples.empty() ? nullptr : &r.samples);
            if (!quiet)
                inform("sweep: trace written to ", path);
        }
    }

    if (spec.statsFormat != StatsFormat::None) {
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (stats_out.empty()) {
                std::cerr << "# stats: cell " << i << "\n"
                          << results[i].statsDump;
                continue;
            }
            const auto path =
                perCellPath(stats_out, i, results.size());
            std::ofstream os(path);
            if (!os)
                cmp_fatal("cannot write stats file '", path, "'");
            os << results[i].statsDump;
            if (!quiet)
                inform("sweep: stats written to ", path);
        }
    }

    if (args.has("bench-out")) {
        const auto path = args.getString("bench-out", "");
        std::ofstream os(path);
        if (!os)
            cmp_fatal("cannot write bench file '", path, "'");
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
    opts.seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));
    const auto samples = args.getInt("samples", 16);
    if (samples <= 0)
        cmp_fatal("--samples must be positive");
    opts.samples = static_cast<unsigned>(samples);
    opts.recordsPerThread = static_cast<std::uint64_t>(
        args.getInt("refs", 1200));
    const auto box = args.getInt("time-box", 0);
    if (box < 0)
        cmp_fatal("--time-box must be >= 0");
    opts.timeBoxSecs = static_cast<double>(box);
    opts.extraFaultPlan = args.getString("fault-plan", "");
    opts.withFaults = !args.getBool("no-faults", false);
    opts.minimize = !args.getBool("no-minimize", false);
    const auto target = args.getInt("minimize-target", 200);
    if (target < 0)
        cmp_fatal("--minimize-target must be >= 0");
    opts.minimizeTargetRecords = static_cast<std::size_t>(target);
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

    if (args.has("config")) {
        const auto loaded =
            loadConfigFile(cfg, args.getString("config", ""));
        if (!loaded.ok())
            cmp_fatal(loaded.error().message);
    }
    std::vector<std::pair<std::string, std::string>> wl_overrides;
    for (const auto &pos : args.positional()) {
        const auto eq = pos.find('=');
        if (eq == std::string::npos)
            cmp_fatal("positional argument '", pos,
                      "' is not a key=value override");
        const std::string key = pos.substr(0, eq);
        const std::string value = pos.substr(eq + 1);
        if (isWorkloadKey(key)) {
            wl_overrides.emplace_back(key, value);
        } else {
            const auto applied = applyConfigOption(cfg, key, value);
            if (!applied.ok())
                cmp_fatal(applied.error().message);
        }
    }

    if (args.has("arrival")) {
        const auto spec =
            parseArrivalSpec(args.getString("arrival", ""));
        if (!spec.ok())
            cmp_fatal(spec.error().message);
        // The spec sets model and rate; burst shape and the sampler
        // seed stay whatever arrival.* keys configured.
        cfg.arrival.model = spec->model;
        cfg.arrival.rate = spec->rate;
    }
    if (args.has("sample-every")) {
        const auto every = args.getInt("sample-every", 0);
        if (every < 0)
            cmp_fatal("--sample-every must be >= 0");
        cfg.obs.sampleEvery = static_cast<Tick>(every);
    }

    const std::string trace = args.getString("trace", "");
    const std::string workload = args.getString("workload", "");
    if (trace.empty() == workload.empty()) {
        cmp_fatal("serve needs exactly one input: --trace=PATH|- or "
                  "--workload=NAME");
    }
    cfg.validate();

    const bool quiet = args.getBool("quiet", false);
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
                cmp_fatal("cannot open trace stream '", trace, "'");
            in = std::move(f);
        }
        if (!quiet)
            inform("serve: streaming ", name, " (queue ",
                   cfg.stream.queueCapacity, " records, ",
                   cfg.stream.overflow == OverflowPolicy::Block
                       ? "block"
                       : "drop",
                   " on overflow, arrival ",
                   toString(cfg.arrival.model), ")");
        sim = std::make_unique<Simulation>(cfg, std::move(in),
                                           std::move(name));
    } else {
        auto params = sweepWorkloadByName(
            workload,
            static_cast<std::uint64_t>(args.getInt(
                "refs",
                static_cast<std::int64_t>(
                    benchRecordsPerThread(20000)))),
            static_cast<std::uint64_t>(args.getInt("seed", 1)));
        for (const auto &[key, value] : wl_overrides)
            applyWorkloadOption(params, key, value);
        if (!quiet)
            inform("serve: synthetic ", workload, " generator, ",
                   params.recordsPerThread, " records/thread, "
                   "arrival ", toString(cfg.arrival.model));
        sim = std::make_unique<Simulation>(cfg, params);
    }

    const auto &result = sim->run();

    const auto out = args.getString("out", "-");
    std::ofstream file;
    if (out != "-" && !out.empty()) {
        file.open(out);
        if (!file)
            cmp_fatal("cannot write results file '", out, "'");
    }
    std::ostream &os = file.is_open() ? file : std::cout;
    os << "{\n  \"schema\": \"cmpcache-serve-result-v1\",\n"
       << "  \"result\":\n";
    writeResultJson(os, result, 2);
    if (sim->sampled()) {
        os << ",\n  \"timeSeries\":\n";
        writeSampleSeriesJson(os, sim->samples(), 2);
    }
    os << "\n}\n";

    if (!quiet) {
        if (const StreamIngest *ingest = sim->ingest()) {
            inform("serve: ingested ", ingest->recordsIngested(),
                   " records (", ingest->recordsDropped(),
                   " dropped, ", ingest->producerBlockedWaits(),
                   " producer waits)");
        }
        inform("serve: finished at tick ", result.execTime,
               ", result written to ",
               file.is_open() ? out : std::string("stdout"));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv, /*allow_subcommand=*/true);
    const std::string &cmd = args.subcommand();
    if (cmd.empty() || cmd == "help" || args.getBool("help", false)) {
        usage();
        return cmd.empty() && !args.getBool("help", false) ? 1 : 0;
    }
    if (cmd == "sweep") {
        args.requireKnown({"workloads", "policies", "outstanding", "refs",
                           "seed", "threads", "out", "bench-out",
                           "check-coherence", "sample-every",
                           "trace-out", "stats-format", "stats-out",
                           "config", "quiet"});
        try {
            return sweepMain(args);
        } catch (const SimException &e) {
            std::cerr << "error (" << toString(e.error().kind)
                      << "): " << e.error().message << "\n";
            return 1;
        }
    }
    if (cmd == "serve") {
        args.requireKnown({"trace", "workload", "refs", "seed",
                           "arrival", "sample-every", "out", "config",
                           "quiet"});
        try {
            return serveMain(args);
        } catch (const SimException &e) {
            std::cerr << "error (" << toString(e.error().kind)
                      << "): " << e.error().message << "\n";
            // A conformance trip on a replayed reproducer is the
            // expected outcome; give it the coherence exit code.
            return e.error().kind == SimErrorKind::Conformance ? 2
                                                               : 1;
        }
    }
    if (cmd == "chaos") {
        args.requireKnown({"seed", "samples", "refs", "time-box",
                           "fault-plan", "no-faults", "no-minimize",
                           "minimize-target", "repro-dir"});
        try {
            return chaosMain(args);
        } catch (const SimException &e) {
            std::cerr << "error (" << toString(e.error().kind)
                      << "): " << e.error().message << "\n";
            return 1;
        }
    }
    if (cmd == "list") {
        args.requireKnown({});
        return listMain();
    }
    cmp_fatal("unknown subcommand '", cmd,
              "' (expected sweep, serve, chaos, list or help)");
}
