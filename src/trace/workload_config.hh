/**
 * @file
 * Textual configuration for WorkloadParams ("wl.key = value"
 * overrides). The wl.* keys only shape the synthetic generator; the
 * workload name, --refs, --seed, the topology and l2.line_size set
 * the rest (see resolveWorkload in sim/sweep.hh).
 */

#ifndef CMPCACHE_TRACE_WORKLOAD_CONFIG_HH
#define CMPCACHE_TRACE_WORKLOAD_CONFIG_HH

#include <string>
#include <vector>

#include "common/error.hh"
#include "trace/workload.hh"

namespace cmpcache
{

/** Is @p key a workload key (has the "wl." prefix)? */
bool isWorkloadKey(const std::string &key);

/**
 * Apply one "wl.xxx", "value" pair under parseInto()'s rules
 * (common/cli.hh); SimError (Config) on unknown keys (naming the
 * successor of a removed one) and on malformed values.
 */
Expected<void> applyWorkloadOption(WorkloadParams &params,
                                   const std::string &key,
                                   const std::string &value);

/** All recognized workload keys. */
const std::vector<std::string> &workloadConfigKeys();

/**
 * Range check of the generator's shape, at @p p's line size. Each
 * returned string names the offending wl.* key. Empty means valid.
 */
std::vector<std::string> workloadParamErrors(const WorkloadParams &p);

} // namespace cmpcache

#endif // CMPCACHE_TRACE_WORKLOAD_CONFIG_HH
