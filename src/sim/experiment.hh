/**
 * @file
 * The metrics the paper's tables and figures are made of, collected
 * from a finished system. Simulation (sim/simulation.hh) runs a
 * workload and returns them; scripts/reproduce.py turns `cmpcache
 * sweep` grids of them into the paper's tables and figures.
 */

#ifndef CMPCACHE_SIM_EXPERIMENT_HH
#define CMPCACHE_SIM_EXPERIMENT_HH

#include <string>

#include "sim/cmp_system.hh"

namespace cmpcache
{

/** Everything the paper reports about one run. */
struct ExperimentResult
{
    std::string workload;
    std::string policy;
    unsigned maxOutstanding = 0;

    Tick execTime = 0;

    // Table 4 columns
    double wbhtCorrectPct = 0.0;    ///< "WBHT Correct"
    double l3LoadHitRatePct = 0.0;  ///< "L3 Load Hit Rate"
    std::uint64_t l2WbRequests = 0; ///< "L2 Write Back Requests"
    std::uint64_t l3Retries = 0;    ///< "L3-issued Retries"

    // Table 5 columns
    std::uint64_t offChipAccesses = 0;
    double wbSnarfedPct = 0.0;        ///< write backs snarfed
    double snarfedUsedLocallyPct = 0.0;
    double snarfedForInterventionPct = 0.0;
    double l2HitRatePct = 0.0;

    // Table 1
    double cleanWbRedundantPct = 0.0;

    // Table 2 (requires cfg.enableWbReuseTracker)
    double wbReusedTotalPct = 0.0;
    double wbReusedAcceptedPct = 0.0;

    // Additional diagnostics
    std::uint64_t wbAborted = 0;
    std::uint64_t memReads = 0;
    /** Reads served by L2-to-L2 transfer. */
    std::uint64_t interventions = 0;
    std::uint64_t busRetries = 0;

    /** Field-for-field exact equality (determinism checks). */
    bool operator==(const ExperimentResult &) const = default;
};

/** Percentage execution-time improvement of @p other over @p base. */
double improvementPct(const ExperimentResult &base,
                      const ExperimentResult &other);

/** Collect an ExperimentResult from an already-run system. */
ExperimentResult collectResult(CmpSystem &sys, Tick exec_time,
                               const std::string &workload_name);

} // namespace cmpcache

#endif // CMPCACHE_SIM_EXPERIMENT_HH
