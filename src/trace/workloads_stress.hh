/**
 * @file
 * Synthetic stress patterns for testing and calibration -- the
 * directed-tester analogue of the commercial stand-ins. Each pattern
 * isolates one behaviour of the memory system:
 *
 *  - uniform:  uniform random over a configurable footprint
 *              (capacity-miss stress, no reuse locality)
 *  - streaming: pure sequential walks (cold misses, one-shot write
 *              backs, zero redundancy)
 *  - pingpong: all threads hammer one small shared region with
 *              stores (invalidation/upgrade storms, intervention
 *              stress)
 *  - thrash:   private sets sized just over the L2 share (maximum
 *              write-back volume and L3 redundancy -- the WBHT's
 *              best case)
 *
 * The chaos harness (docs/robustness.md) adds three adversarial
 * sharing generators tuned to maximize the transaction interleavings
 * where stale-copy bugs hide:
 *
 *  - producer_consumer: a store-heavy shared region read back by
 *              every thread (supplier handoffs, dirty interventions,
 *              write backs racing demand refetches)
 *  - migratory: a tiny fully shared region where nearly every touch
 *              is a store (continuous M-ownership migration through
 *              Upgrade/ReadExcl storms)
 *  - false_sharing: a handful of shared lines under mixed
 *              load/store pressure (maximum same-line concurrency
 *              per combine window)
 */

#ifndef CMPCACHE_TRACE_WORKLOADS_STRESS_HH
#define CMPCACHE_TRACE_WORKLOADS_STRESS_HH

#include <string>
#include <vector>

#include "trace/workload.hh"

namespace cmpcache
{
namespace workloads
{

WorkloadParams uniformStress(std::uint64_t records_per_thread,
                             std::uint64_t seed,
                             std::uint64_t footprint_lines = 1u << 18);

WorkloadParams streamingStress(std::uint64_t records_per_thread,
                               std::uint64_t seed);

WorkloadParams pingpongStress(std::uint64_t records_per_thread,
                              std::uint64_t seed,
                              std::uint64_t shared_lines = 512);

WorkloadParams thrashStress(std::uint64_t records_per_thread,
                            std::uint64_t seed,
                            std::uint64_t lines_per_thread = 5120);

WorkloadParams
producerConsumerStress(std::uint64_t records_per_thread,
                       std::uint64_t seed,
                       std::uint64_t shared_lines = 256);

WorkloadParams migratoryStress(std::uint64_t records_per_thread,
                               std::uint64_t seed,
                               std::uint64_t shared_lines = 64);

WorkloadParams falseSharingStress(std::uint64_t records_per_thread,
                                  std::uint64_t seed,
                                  std::uint64_t shared_lines = 16);

/** Names of the stress patterns ("uniform", "streaming", ...). */
const std::vector<std::string> &stressNames();

/** Lookup by name; SimException (Config) if unknown. */
WorkloadParams stressByName(const std::string &name,
                            std::uint64_t records_per_thread,
                            std::uint64_t seed);

} // namespace workloads
} // namespace cmpcache

#endif // CMPCACHE_TRACE_WORKLOADS_STRESS_HH
