/**
 * @file
 * Pressure study: the paper's central experiment in miniature. For
 * one workload, sweep the memory-pressure knob (maximum outstanding
 * misses per thread, 1..6) across all five write-back policies and
 * report runtimes plus improvements over the baseline.
 *
 * Run:  ./examples/pressure_study --workload=TP [--refs=N]
 */

#include <iomanip>
#include <iostream>
#include <vector>

#include "common/cli.hh"
#include "sim/experiment.hh"
#include "trace/workloads_commercial.hh"

using namespace cmpcache;

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const std::string name = args.getString("workload", "TP");
    const auto refs =
        args.getUnsigned("refs", benchRecordsPerThread(20000));

    const std::vector<WbPolicy> policies = {
        WbPolicy::Wbht, WbPolicy::WbhtGlobal, WbPolicy::Snarf,
        WbPolicy::Combined};

    std::cout << "Pressure study: " << name << ", " << refs
              << " refs/thread\n\n";
    std::cout << std::left << std::setw(13) << "outstanding"
              << std::right << std::setw(12) << "baseline";
    for (const auto p : policies)
        std::cout << std::setw(14) << toString(p);
    std::cout << "\n";

    for (unsigned outstanding = 1; outstanding <= 6; ++outstanding) {
        const auto wl = workloads::byName(name, refs, 1);

        SystemConfig cfg;
        cfg.cpu.maxOutstanding = outstanding;
        cfg.policy.retry.windowCycles = 250000;
        cfg.policy.retry.threshold = 100;

        cfg.policy.policy = WbPolicy::Baseline;
        const auto base = runExperiment(cfg, wl);

        std::cout << std::left << std::setw(13) << outstanding
                  << std::right << std::setw(12) << base.execTime;
        for (const auto p : policies) {
            auto pc = p == WbPolicy::Combined
                          ? PolicyConfig::combinedDefault()
                          : PolicyConfig::make(p);
            pc.retry = cfg.policy.retry;
            cfg.policy = pc;
            const auto r = runExperiment(cfg, wl);
            std::cout << std::setw(13) << std::fixed
                      << std::setprecision(2)
                      << improvementPct(base, r) << "%";
        }
        std::cout << "\n";
    }
    std::cout << "\n(positive = % runtime improvement over the "
                 "baseline at the same pressure)\n";
    return 0;
}
