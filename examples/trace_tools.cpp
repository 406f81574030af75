/**
 * @file
 * Trace tooling example: synthesize a commercial-workload trace,
 * write it to disk (text or binary), read it back, and print a
 * summary. Demonstrates the trace-file interchange API -- the same
 * files can feed external tools or be produced by them and replayed
 * through CmpSystem via splitByThread().
 *
 * Run:  ./examples/trace_tools --workload=Trade2 --refs=2000 \
 *           --out=/tmp/trade2.trace --format=binary
 *
 * --format is text or binary (the default); any other option, and
 * any positional argument, fails by name with exit status 1 before
 * anything is written.
 */

#include <iostream>
#include <map>

#include "common/cli.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "trace/trace_io.hh"
#include "trace/workloads_commercial.hh"

using namespace cmpcache;

int
main(int argc, char **argv)
try {
    const CliArgs args(argc, argv);
    args.requireKnown({"workload", "refs", "seed", "out", "format"});
    args.requireNoPositional();
    const std::string name = args.getString("workload", "TP");
    const auto refs = args.get("refs", std::uint64_t{2000});
    const std::string path =
        args.getString("out", "/tmp/cmpcache_example.trace");
    const std::string format = args.getString("format", "binary");
    if (format != "text" && format != "binary") {
        throw SimException(SimErrorKind::Config,
                           cstr("--format must be text or binary, got '",
                                format, "'"));
    }
    const bool binary = format == "binary";

    // 1. Synthesize.
    const auto params = workloads::byName(
        name, refs, args.get("seed", std::uint64_t{1}));
    SyntheticWorkload wl(params);
    const auto records = wl.materialize();
    std::cout << "synthesized " << records.size() << " references for "
              << name << "\n";

    // 2. Write to disk.
    const auto written = writeTraceFile(
        path, records,
        binary ? TraceFormat::Binary : TraceFormat::Text);
    if (!written.ok()) {
        std::cerr << "error: " << written.error().message << "\n";
        return 1;
    }
    std::cout << "wrote " << path << " ("
              << (binary ? "binary" : "text") << ")\n";

    // 3. Read back and verify.
    const auto loaded = readTraceFile(path);
    if (!loaded.ok()) {
        std::cerr << "error: " << loaded.error().message << "\n";
        return 1;
    }
    const auto &back = *loaded;
    if (back != records) {
        std::cerr << "round-trip mismatch!\n";
        return 1;
    }
    std::cout << "round-trip verified (" << back.size()
              << " records)\n\n";

    // 4. Summarize.
    std::map<MemOp, std::uint64_t> ops;
    std::map<ThreadId, std::uint64_t> per_thread;
    double gap_sum = 0.0;
    for (const auto &r : back) {
        ++ops[r.op];
        ++per_thread[r.tid];
        gap_sum += r.gap;
    }
    std::cout << "loads   " << ops[MemOp::Load] << "\n"
              << "stores  " << ops[MemOp::Store] << "\n"
              << "ifetch  " << ops[MemOp::IFetch] << "\n"
              << "threads " << per_thread.size() << "\n"
              << "mean gap " << gap_sum / back.size() << " cycles\n";

    // 5. Replay the file through the simulator.
    SystemConfig cfg;
    CmpSystem sys(cfg, splitByThread(back, params.numThreads));
    const Tick t = sys.run();
    std::cout << "\nreplayed through the paper machine in " << t
              << " cycles (L2 hit rate "
              << 100.0 * sys.l2HitRate() << "%)\n";
    return 0;
} catch (const SimException &e) {
    std::cerr << "error (" << toString(e.kind()) << "): " << e.what()
              << "\n";
    return 1;
}
