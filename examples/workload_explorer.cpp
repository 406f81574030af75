/**
 * @file
 * Workload explorer: characterize any of the four commercial-workload
 * stand-ins (or a custom parameterization) on the paper's machine.
 *
 * Prints the behavioural fingerprint the paper reports per workload:
 * L3 load hit rate, clean-write-back redundancy, write-back volume,
 * retry rate, reuse percentages, and runtime under a chosen policy
 * and memory pressure.
 *
 * Run:  ./examples/workload_explorer [--workload=TP|CPW2|...|all]
 *          [--policy=baseline|wbht|wbht-global|snarf|combined]
 *          [--outstanding=N] [--refs=N] [--seed=N] [--stats]
 */

#include <iomanip>
#include <iostream>

#include "common/cli.hh"
#include "sim/experiment.hh"
#include "trace/workloads_commercial.hh"

using namespace cmpcache;

namespace
{

void
printHeader()
{
    std::cout << std::left << std::setw(12) << "workload"
              << std::right << std::setw(11) << "cycles"
              << std::setw(9) << "L3hit%" << std::setw(9) << "redun%"
              << std::setw(10) << "WBreqs" << std::setw(10)
              << "L3retry" << std::setw(9) << "L2hit%" << std::setw(9)
              << "reuse%" << std::setw(9) << "offchip" << "\n";
}

void
printRow(const ExperimentResult &r)
{
    std::cout << std::left << std::setw(12) << r.workload
              << std::right << std::setw(11) << r.execTime
              << std::setw(9) << std::fixed << std::setprecision(1)
              << r.l3LoadHitRatePct << std::setw(9)
              << r.cleanWbRedundantPct << std::setw(10)
              << r.l2WbRequests << std::setw(10) << r.l3Retries
              << std::setw(9) << r.l2HitRatePct << std::setw(9)
              << r.wbReusedTotalPct << std::setw(9)
              << r.offChipAccesses << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv);
    const std::string which = args.getString("workload", "all");
    const std::string policy = args.getString("policy", "baseline");
    const auto refs =
        args.getUnsigned("refs", benchRecordsPerThread(40000));
    const auto seed = args.getUnsigned("seed", std::uint64_t{1});

    SystemConfig cfg;
    cfg.policy = policy == "combined"
                     ? PolicyConfig::combinedDefault()
                     : PolicyConfig::make(wbPolicyFromString(policy));
    cfg.cpu.maxOutstanding = args.getUnsigned("outstanding", 6u);
    cfg.enableWbReuseTracker = true;
    cfg.policy.retry.windowCycles =
        args.getUnsigned("retry-window", Tick{250000});
    cfg.policy.retry.threshold =
        args.getUnsigned("retry-threshold", std::uint64_t{100});
    cfg.policy.wbht.entries =
        args.getUnsigned("wbht-entries", cfg.policy.wbht.entries);
    cfg.policy.snarf.entries =
        args.getUnsigned("snarf-entries", cfg.policy.snarf.entries);

    std::vector<std::string> names;
    if (which == "all")
        names = workloads::allNames();
    else
        names.push_back(which);

    std::cout << "policy=" << policy
              << " outstanding=" << cfg.cpu.maxOutstanding
              << " refs/thread=" << refs << "\n\n";
    printHeader();
    for (const auto &name : names) {
        const auto wl = workloads::byName(name, refs, seed);
        std::ostringstream stats;
        const auto r = runExperiment(
            cfg, wl, args.getBool("stats", false) ? &stats : nullptr);
        printRow(r);
        if (args.getBool("stats", false))
            std::cout << stats.str();
    }
    return 0;
}
