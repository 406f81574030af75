/**
 * @file
 * Machine-scaling study: the paper's 8-core machine grown to 16, 32
 * and 64 cores behind the declarative topology API (4 single-SMT
 * cores per L2 cluster, one L3 slice per L2, single ring).
 *
 * Each cell runs the thrash stress workload under the combined policy
 * and reports simulator throughput (kernel events per wall second)
 * alongside the adaptive-mechanism health stats -- retry traffic,
 * snarf usage, WBHT accuracy -- so a scaling regression in either
 * speed or behaviour is visible.
 *
 * Emits cmpcache-scale-bench-v1 JSON. The committed baseline lives in
 * bench/BENCH_scale.json; scripts/bench_guard.py guards only the
 * 8-core cell's events/sec (marked "guard": true), the larger
 * machines are informational. The JSON records the host's hardware
 * thread count as `hostCores`: the guard gates only where it equals
 * the baseline's.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/sweep.hh"
#include "trace/workloads_commercial.hh"

namespace cmpcache
{
namespace
{

struct ScaleCell
{
    unsigned cores = 0;
    unsigned l2s = 0;
    SweepJobResult r;
};

/** Doubles print round-trippably, mirroring the sweep writers. */
std::string
jsonNum(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

ScaleCell
runScaleCell(unsigned cores, std::uint64_t refs_per_thread,
             unsigned repeats)
{
    SweepSpec spec;
    spec.workloads = {"thrash"};
    spec.policies = {WbPolicy::Combined};
    spec.outstanding = {6};
    spec.recordsPerThread = refs_per_thread;

    ScaleCell cell;
    cell.cores = cores;
    cell.l2s = cores / 4;
    spec.base.topology.cores = cores;
    spec.base.topology.smt = 1;
    spec.base.topology.l2s = cell.l2s;
    spec.base.topology.l3Slices = cell.l2s;
    // The retry-rate switch scaled to short synthetic traces, as in
    // scripts/reproduce.py.
    spec.base.policy.retry.windowCycles = 250000;
    spec.base.policy.retry.threshold = 100;

    // Best-of-N: the smallest machines finish in tens of
    // milliseconds, so a single run is too noisy to gate on. Results
    // are deterministic across repeats; only the timing varies.
    for (unsigned rep = 0; rep < repeats; ++rep) {
        const auto results = runSweep(spec, 1);
        if (results.size() != 1 || !results[0].ok) {
            std::cerr << "scale cell " << cores << "c failed: "
                      << (results.empty() ? "no result"
                                          : results[0].error)
                      << "\n";
            std::exit(1);
        }
        if (rep == 0 || results[0].eventsPerSec > cell.r.eventsPerSec)
            cell.r = results[0];
    }

    return cell;
}

void
writeJson(std::ostream &os, std::uint64_t refs,
          const std::vector<ScaleCell> &cells)
{
    os << "{\n  \"schema\": \"cmpcache-scale-bench-v1\",\n"
       << "  \"hostCores\": " << std::thread::hardware_concurrency()
       << ",\n  \"workload\": \"thrash\",\n"
       << "  \"policy\": \"combined\",\n"
       << "  \"refsPerThread\": " << refs << ",\n  \"pairs\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &c = cells[i];
        const auto &res = c.r.result;
        os << "    {\"name\": \"scale-" << c.cores << "c\""
           << ", \"guard\": " << (i == 0 ? "true" : "false")
           << ", \"cores\": " << c.cores << ", \"l2s\": " << c.l2s
           << ", \"threads\": " << c.cores
           << ", \"execTime\": " << res.execTime
           << ", \"eventsExecuted\": " << c.r.eventsExecuted
           << ", \"wallSeconds\": " << jsonNum(c.r.wallSeconds)
           << ", \"eventsPerSec\": " << jsonNum(c.r.eventsPerSec)
           << ", \"currentOpsPerSec\": " << jsonNum(c.r.eventsPerSec)
           << ", \"busRetries\": " << res.busRetries
           << ", \"l3Retries\": " << res.l3Retries
           << ", \"wbSnarfedPct\": " << jsonNum(res.wbSnarfedPct)
           << ", \"snarfedUsedLocallyPct\": "
           << jsonNum(res.snarfedUsedLocallyPct)
           << ", \"snarfedForInterventionPct\": "
           << jsonNum(res.snarfedForInterventionPct)
           << ", \"wbhtCorrectPct\": " << jsonNum(res.wbhtCorrectPct)
           << ", \"l2HitRatePct\": " << jsonNum(res.l2HitRatePct)
           << "}" << (i + 1 == cells.size() ? "\n" : ",\n");
    }
    os << "  ]\n}\n";
}

} // namespace
} // namespace cmpcache

int
main(int argc, char **argv)
{
    using namespace cmpcache;

    std::string out;
    unsigned repeats = 3;
    std::vector<unsigned> core_counts = {8, 16, 32, 64};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0) {
            out = arg.substr(6);
        } else if (arg.rfind("--repeats=", 0) == 0) {
            repeats = static_cast<unsigned>(
                std::stoul(arg.substr(10)));
            if (repeats == 0)
                repeats = 1;
        } else if (arg.rfind("--cores=", 0) == 0) {
            core_counts.clear();
            std::istringstream is(arg.substr(8));
            std::string tok;
            while (std::getline(is, tok, ','))
                core_counts.push_back(
                    static_cast<unsigned>(std::stoul(tok)));
        } else {
            std::cerr << "usage: scale [--cores=8,16,...] "
                         "[--repeats=N] [--out=FILE]\n";
            return 2;
        }
    }

    // The trace length bench/BENCH_scale.json was recorded at.
    const std::uint64_t refs = 8000;
    std::vector<ScaleCell> cells;
    for (unsigned cores : core_counts) {
        if (cores % 4 != 0 || cores == 0) {
            std::cerr << "core counts must be positive multiples of 4 "
                         "(4 threads per L2 cluster), got "
                      << cores << "\n";
            return 2;
        }
        std::cerr << "scale: " << cores << " cores, "
                  << cores / 4 << " L2s...\n";
        cells.push_back(runScaleCell(cores, refs, repeats));
    }

    writeJson(std::cout, refs, cells);
    if (!out.empty()) {
        std::ofstream f(out);
        if (!f) {
            std::cerr << "cannot write " << out << "\n";
            return 1;
        }
        writeJson(f, refs, cells);
        std::cerr << "scale bench written to " << out << "\n";
    }
    return 0;
}
