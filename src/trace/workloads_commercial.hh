/**
 * @file
 * Synthetic stand-ins for the paper's four commercial workloads.
 *
 * The parameters below are calibrated against the behavioural targets
 * the paper itself reports (its Tables 1, 2 and 4):
 *
 *  workload    | clean-WB already in L3 | L3 load hit | pressure
 *  ------------+------------------------+-------------+----------------
 *  TP          | 42.1%                  | 32.4%       | very high (92%+
 *              |                        |             | CPU util, many
 *              |                        |             | retries)
 *  CPW2        | 60.0%                  | 50.5%       | moderate (70%)
 *  NotesBench  | 59.1%                  | 70.5%       | very low
 *  Trade2      | 79.1%                  | 79.0%       | high WB volume,
 *              |                        |             | extreme re-reuse
 *              |                        |             | (>300x per line)
 *
 * See DESIGN.md section 4 for the substitution rationale.
 *
 * Also home to the table of every built-in workload, these four and
 * the stress patterns (trace/workloads_stress.hh), and its lookup.
 */

#ifndef CMPCACHE_TRACE_WORKLOADS_COMMERCIAL_HH
#define CMPCACHE_TRACE_WORKLOADS_COMMERCIAL_HH

#include <span>
#include <string>
#include <string_view>

#include "trace/workload.hh"

namespace cmpcache
{
namespace workloads
{

/** Online transaction processing, TPC-C-like (paper's "TP"). */
WorkloadParams tp(std::uint64_t records_per_thread, std::uint64_t seed);

/** Commercial Processing Workload 2 (OLTP at ~70% CPU util). */
WorkloadParams cpw2(std::uint64_t records_per_thread,
                    std::uint64_t seed);

/** Lotus NotesBench e-mail serving (low memory pressure). */
WorkloadParams notesbench(std::uint64_t records_per_thread,
                          std::uint64_t seed);

/** Trade2 J2EE online-brokerage web application. */
WorkloadParams trade2(std::uint64_t records_per_thread,
                      std::uint64_t seed);

/** A built-in workload: its family, its name and its generator. */
struct BuiltinWorkload
{
    std::string_view family; ///< "commercial" or "stress"
    std::string_view name;
    WorkloadParams (*make)(std::uint64_t records_per_thread,
                           std::uint64_t seed);
};

/** Every built-in workload, family by family, as `cmpcache list`
 * prints them: the four commercial stand-ins, then the seven stress
 * patterns. */
std::span<const BuiltinWorkload> builtinWorkloads();

/** Look up a built-in workload by name; SimException (Config) naming
 * every built-in if unknown. */
WorkloadParams byName(const std::string &name,
                      std::uint64_t records_per_thread,
                      std::uint64_t seed);

} // namespace workloads
} // namespace cmpcache

#endif // CMPCACHE_TRACE_WORKLOADS_COMMERCIAL_HH
