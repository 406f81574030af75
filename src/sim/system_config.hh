/**
 * @file
 * Whole-system configuration: paper Table 3 by default.
 */

#ifndef CMPCACHE_SIM_SYSTEM_CONFIG_HH
#define CMPCACHE_SIM_SYSTEM_CONFIG_HH

#include <string>
#include <vector>

#include "core/policy.hh"
#include "cpu/trace_cpu.hh"
#include "fault/fault_plan.hh"
#include "l2/l2_cache.hh"
#include "l3/l3_cache.hh"
#include "memctrl/mem_ctrl.hh"
#include "obs/obs_config.hh"
#include "ring/ring.hh"
#include "sim/topology.hh"
#include "sim/watchdog.hh"
#include "trace/trace_source.hh"

namespace cmpcache
{

/**
 * Online conformance checking (check.* keys). Both knobs default off
 * so the default machine stays byte-identical to a build without the
 * checking subsystem; the unit/e2e suites force them on.
 */
struct CheckConfig
{
    /**
     * Shadow write-epoch oracle (check.oracle): every store bumps a
     * per-line version, every data delivery is validated against the
     * newest committed version. A stale supply throws a SimException
     * of kind Conformance at the exact tick it happens.
     */
    bool oracle = false;

    /**
     * Period (cycles) of online whole-machine invariant sweeps
     * (check.invariants_every); 0 keeps the checker end-of-run only.
     */
    Tick invariantsEvery = 0;

    bool enabled() const { return oracle || invariantsEvery > 0; }
};

/**
 * Largest l2.mshrs, l2.wbq_depth and snarf.buffers a config may ask
 * for. Each L2 sizes these buffers when it is built, so a larger
 * value fails validation instead of the allocator.
 */
constexpr unsigned kMaxL2Buffers = 4096;

/**
 * Largest way count (sets x assoc) of one L2, L3, WBHT or snarf-table
 * array: 2^26 ways, 1 GiB of L2 or L3 way state at 16 bytes a way. A
 * larger array fails validation naming its size key instead of
 * aborting when it is built.
 */
constexpr std::uint64_t kMaxArrayWays = std::uint64_t{1} << 26;

struct SystemConfig
{
    /**
     * Declarative machine shape (topology.* keys): cores, SMT ways,
     * L2 count, L3 slicing. Defaults to the paper's Table 3 machine:
     * eight 2-way-SMT cores, four shared L2s, a 4-slice L3 and the
     * memory controller on a single ring.
     */
    TopologyParams topology;

    L2Params l2;
    L3Params l3;
    MemParams mem;
    RingParams ring;
    CpuParams cpu;
    PolicyConfig policy;
    ObsConfig obs;
    FaultConfig fault;
    WatchdogConfig watchdog;
    /** Conformance oracle + online invariant sweeps (check.* keys). */
    CheckConfig check;
    /** Streaming-ingest pipeline knobs (stream.* keys). */
    StreamParams stream;

    /** Track per-line write-back reuse (Table 2); costs memory. */
    bool enableWbReuseTracker = false;

    /**
     * Functionally pre-warm the caches with one pass of the workload
     * before the timed run (steady-state measurement, as with the
     * paper's long hardware-captured traces).
     */
    bool warmupPass = true;

    /** Hard stop for runaway simulations. */
    Tick maxTicks = 40ull * 1000 * 1000 * 1000;

    unsigned numThreads() const { return topology.threads(); }

    /**
     * Cross-field consistency checks. Each returned string names the
     * offending config key(s) so the message maps straight back to
     * the file or --key=value flag that caused it. Empty means valid.
     */
    std::vector<std::string> validationErrors() const;

    /** Throw SimException (kind Config) if validationErrors() is
     * non-empty. */
    void validate() const;
};

} // namespace cmpcache

#endif // CMPCACHE_SIM_SYSTEM_CONFIG_HH
