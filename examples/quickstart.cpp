/**
 * @file
 * Quickstart: build the paper's CMP (Figure 1 / Table 3), replay a
 * small synthetic OLTP-like workload under the baseline policy and
 * under both adaptive mechanisms combined, and compare runtimes.
 *
 * Run:  ./examples/quickstart [--refs=N] [--outstanding=K]
 *
 * Any other option, and any positional argument, fails by name with
 * exit status 1.
 */

#include <iostream>

#include "common/cli.hh"
#include "sim/simulation.hh"
#include "trace/workloads_commercial.hh"

using namespace cmpcache;

int
main(int argc, char **argv)
try {
    const CliArgs args(argc, argv);
    args.requireKnown({"refs", "outstanding"});
    args.requireNoPositional();
    const std::uint64_t refs = args.get("refs", std::uint64_t{20000});
    const unsigned outstanding = args.get("outstanding", 6u);

    // The workload: a scaled-down stand-in for the paper's TP trace.
    const WorkloadParams wl = workloads::tp(refs, /*seed=*/42);

    // The machine: paper defaults (8 cores x 2 SMT, 4 x 2 MB L2,
    // 16 MB off-chip L3 victim cache, bi-directional ring).
    SystemConfig cfg;
    cfg.cpu.maxOutstanding = outstanding;
    // Retry-rate switch scaled to short synthetic traces (paper rate:
    // 2,000 retries per 1M cycles on multi-billion-cycle captures).
    cfg.policy.retry.windowCycles = 250000;
    cfg.policy.retry.threshold = 100;

    std::cout << "cmpcache quickstart: " << wl.name << ", "
              << refs << " refs/thread, " << outstanding
              << " outstanding misses/thread\n\n";

    const auto retry = cfg.policy.retry;
    cfg.policy = PolicyConfig::make(WbPolicy::Baseline);
    cfg.policy.retry = retry;
    const ExperimentResult base = Simulation(cfg, wl).run();
    std::cout << "baseline : " << base.execTime << " cycles, "
              << "L3 load hit " << base.l3LoadHitRatePct << "%, "
              << base.l2WbRequests << " write backs, "
              << base.l3Retries << " L3 retries\n";

    cfg.policy = PolicyConfig::combinedDefault();
    cfg.policy.retry = retry;
    const ExperimentResult comb = Simulation(cfg, wl).run();
    std::cout << "combined : " << comb.execTime << " cycles, "
              << "L3 load hit " << comb.l3LoadHitRatePct << "%, "
              << comb.l2WbRequests << " write backs, "
              << comb.l3Retries << " L3 retries\n\n";

    std::cout << "WBHT + snarfing improve runtime by "
              << improvementPct(base, comb) << "%\n";
    return 0;
} catch (const SimException &e) {
    std::cerr << "error (" << toString(e.kind()) << "): " << e.what()
              << "\n";
    return 1;
}
