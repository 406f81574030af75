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

/**
 * Everything the paper reports about one run. collectResult() alone
 * derives it from the machine's counters; "summed" is over every L2.
 * A percentage is 0 when its denominator is, and is computed either
 * as 100 * (a / b) or as 100 * a / b, as given below: the two round
 * differently in the last digits.
 */
struct ExperimentResult
{
    std::string workload;
    std::string policy;
    unsigned maxOutstanding = 0;

    Tick execTime = 0;

    // Table 4 columns
    /** "WBHT Correct": 100 * (correct / consulted), both summed over
     * the L2s that have a WBHT. */
    double wbhtCorrectPct = 0.0;
    /** "L3 Load Hit Rate": of the loads served beyond the L2s
     * (interventions excluded), the L3's share: 100 * (loads_served /
     * (loads_served + loads_to_memory)). */
    double l3LoadHitRatePct = 0.0;
    /** "L2 Write Back Requests": wb_issued, summed. */
    std::uint64_t l2WbRequests = 0;
    std::uint64_t l3Retries = 0; ///< "L3-issued Retries"

    // Table 5 columns
    std::uint64_t offChipAccesses = 0; ///< L3 supplies + memory reads
    /** Write backs snarfed: 100 * snarfed_received / l2WbRequests. */
    double wbSnarfedPct = 0.0;
    /** 100 * snarf_local_use / snarfed_received, both summed. */
    double snarfedUsedLocallyPct = 0.0;
    /** 100 * snarf_intervention_use / snarfed_received, both summed. */
    double snarfedForInterventionPct = 0.0;
    /** 100 * (hits / accesses) of L2 demand references, both summed. */
    double l2HitRatePct = 0.0;

    // Table 1: 100 * clean_wb_already_valid / clean_wb_seen (the L3's)
    double cleanWbRedundantPct = 0.0;

    // Table 2 (requires cfg.enableWbReuseTracker): 100 * reused /
    // write backs, of all write backs and of those the L3 accepted
    double wbReusedTotalPct = 0.0;
    double wbReusedAcceptedPct = 0.0;

    // Additional diagnostics
    std::uint64_t wbAborted = 0; ///< wb_aborted_by_wbht, summed
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
