/**
 * @file
 * CmpSystem: the assembled Figure 1 machine.
 *
 * Wires the topology's trace-driven hardware threads (16 in the
 * paper's machine) into its shared L2 caches, an off-chip L3 victim
 * cache and a memory controller over the intrachip ring, with the
 * Snoop Collector and the paper's adaptive write-back machinery
 * configured per PolicyConfig. All agent-id and placement arithmetic
 * comes from the validated CmpTopology.
 */

#ifndef CMPCACHE_SIM_CMP_SYSTEM_HH
#define CMPCACHE_SIM_CMP_SYSTEM_HH

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "check/version_oracle.hh"
#include "core/retry_monitor.hh"
#include "cpu/trace_cpu.hh"
#include "fault/fault_injector.hh"
#include "l2/l2_cache.hh"
#include "l3/l3_cache.hh"
#include "memctrl/mem_ctrl.hh"
#include "ring/ring.hh"
#include "sim/system_config.hh"
#include "trace/trace.hh"

namespace cmpcache
{

/**
 * Per-line write-back reuse accounting (paper Table 2): a write back
 * counts as "reused" when the line is demanded again after it left an
 * L2.
 */
class WbReuseTracker
{
  public:
    void observe(const BusRequest &req, const CombinedResult &res);

    std::uint64_t totalWb() const { return totalWb_; }
    std::uint64_t acceptedWb() const { return acceptedWb_; }
    double reusedTotalPct() const;
    double reusedAcceptedPct() const;

  private:
    std::uint64_t totalWb_ = 0;
    std::uint64_t acceptedWb_ = 0;
    std::uint64_t reusedTotal_ = 0;
    std::uint64_t reusedAccepted_ = 0;
    std::unordered_set<Addr> pendingTotal_;
    std::unordered_set<Addr> pendingAccepted_;
};

/**
 * What a functional warmup pass leaves behind, whatever the
 * write-back policy: the warmed L2 and L3 tag arrays with their LRU
 * state, and the events the pass feeds the adaptive tables, in order.
 * Built once per trace and machine shape (buildWarmImage), it loads
 * into any machine of that shape and any policy
 * (CmpSystem::loadWarmImage).
 *
 * The snarf tables and the WBHTs never read each other's events, so
 * each kind has its own log, held as parallel arrays (no padding).
 */
struct WarmImage
{
    std::vector<TagArray> l2Tags;
    TagArray l3Tags;
    /** The snarf-table events: a demand miss (every snarf table
     * marks the line used) or, where snarfWriteBack is set, a victim
     * leaving an L2 (every snarf table enters the line). */
    std::vector<Addr> snarfLines;
    std::vector<bool> snarfWriteBack;
    /** The WBHT events: a clean victim the L3 already held, which
     * the WBHT of the L2 it left (every WBHT under global allocation)
     * allocates. */
    std::vector<Addr> wbhtLines;
    std::vector<std::uint32_t> wbhtL2s;
    /** Lines the pass left valid in two or more L2s, ascending (see
     * CmpSystem::isWarmupApproximate). */
    std::vector<Addr> approximateLines;
};

/**
 * Run the functional warmup pass (no timing, no events) over
 * @p traces on fresh caches shaped like @p cfg's: each reference
 * installs into its thread's L2 and evicts with plain findVictim;
 * victims migrate to the L3, clean and dirty alike, and a demand
 * store claims the L3's copy. @p cfg's topology and cache geometry
 * must be valid.
 */
WarmImage buildWarmImage(const SystemConfig &cfg, TraceBundle traces);

class CmpSystem : public stats::Group
{
  public:
    /**
     * Build the machine. @p traces must contain exactly
     * cfg.numThreads() per-thread sources.
     */
    CmpSystem(const SystemConfig &cfg, TraceBundle traces);
    ~CmpSystem() override;

    /**
     * Replay every trace to completion.
     * @return the finish tick (max over threads)
     * @throws SimException (kind Budget) if the maxTicks safety limit
     *         is hit before the traces drain
     */
    Tick run();

    /**
     * Functionally pre-warm the L2s and L3 so measured runs start
     * from steady-state cache contents: buildWarmImage over
     * @p traces, then loadWarmImage.
     */
    void functionalWarmup(TraceBundle traces);

    /**
     * Start the timed run from @p image instead of cold caches: take
     * its tag arrays (copied, or moved from an rvalue) and replay its
     * table events into this policy's tables. Every snarf table sees
     * each miss and each victim's write back, and a clean victim the
     * L3 already held allocates WBHT entries as its combined response
     * would. @p image must come from a machine of this shape.
     */
    void loadWarmImage(const WarmImage &image);
    void loadWarmImage(WarmImage &&image);

    bool finished() const;

    /** The event queue every component of this machine runs on. */
    EventQueue &eventq() { return eq_; }
    const SystemConfig &config() const { return cfg_; }
    /** The validated machine shape everything was assembled from. */
    const CmpTopology &topology() const { return topo_; }

    /** Live events on the machine's queue. */
    std::size_t totalPending() const { return eq_.numPending(); }
    /** Events the machine's queue has executed. */
    std::uint64_t totalExecuted() const { return eq_.numExecuted(); }

    Ring &ring() { return *ring_; }
    L3Cache &l3() { return *l3_; }
    MemCtrl &mem() { return *mem_; }
    L2Cache &l2(unsigned i) { return *l2s_.at(i); }
    unsigned numL2s() const { return topo_.numL2s(); }
    TraceCpu &cpu(unsigned tid) { return *cpus_.at(tid); }
    unsigned numCpus() const { return topo_.numThreads(); }
    RetryMonitor &retryMonitor() { return *retryMonitor_; }
    const WbReuseTracker *reuseTracker() const
    {
        return reuseTracker_.get();
    }
    /** Non-null only when cfg.fault.plan is non-empty. */
    FaultInjector *faultInjector() { return faults_.get(); }
    /** Non-null only when cfg.check.oracle is set. */
    VersionOracle *conformanceOracle() { return oracle_.get(); }

    /**
     * Did functional warmup seed this line into several L2s at once?
     * Warmup installs per-L2 without invalidating peers, so such
     * lines start the timed run in states (duplicate M/E copies) a
     * running machine could never produce -- a known approximation.
     * The structural invariant checker skips them, exactly as the
     * conformance oracle taints them. Empty when warmup is off.
     */
    bool
    isWarmupApproximate(Addr line) const
    {
        return std::binary_search(warmupApprox_.begin(),
                                  warmupApprox_.end(), line);
    }

    /**
     * The stat paths (relative to this group) the periodic sampler
     * watches by default: the instantaneous occupancy gauges plus the
     * counters the paper's adaptive mechanisms react to. See
     * docs/observability.md for the full probe inventory.
     */
    std::vector<std::string> defaultProbePaths() const;

    // Aggregates used by the experiment harness
    std::uint64_t totalL2WbIssued() const;
    std::uint64_t totalL2Accesses() const;
    std::uint64_t totalL2Hits() const;
    double l2HitRate() const;
    std::uint64_t totalSnarfedReceived() const;
    std::uint64_t totalSnarfLocalUse() const;
    std::uint64_t totalSnarfInterventionUse() const;
    std::uint64_t totalWbSnarfedOut() const;
    double wbhtCorrectFraction() const;
    /** Demand lines fetched from off chip (L3 + memory supplies). */
    std::uint64_t offChipAccesses() const;

  private:
    /** Violation-report appendix for the conformance oracle. */
    std::string conformanceSnapshot();

    /** Warmup preconditions: no timed run yet, @p image shaped like
     * this machine. */
    void checkWarmImage(const WarmImage &image) const;
    /** Everything of loadWarmImage but the tags. */
    void loadWarmTables(const WarmImage &image);

    SystemConfig cfg_;
    /** Built (and validated) from cfg_.topology before any component:
     * every id, stop and cluster computation below goes through it. */
    CmpTopology topo_;
    /** Declared before the components whose callbacks it holds, so
     * it outlives them: pending callbacks die unrun with it. */
    EventQueue eq_;

    std::unique_ptr<RetryMonitor> retryMonitor_;
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<Ring> ring_;
    std::unique_ptr<L3Cache> l3_;
    std::unique_ptr<MemCtrl> mem_;
    std::vector<std::unique_ptr<L2Cache>> l2s_;
    std::vector<std::unique_ptr<TraceCpu>> cpus_;
    std::unique_ptr<WbReuseTracker> reuseTracker_;
    /** Built only when cfg.check.oracle is set. */
    std::unique_ptr<VersionOracle> oracle_;
    /** Lines functional warmup seeded into >= 2 L2s, ascending (see
     * isWarmupApproximate). */
    std::vector<Addr> warmupApprox_;
};

} // namespace cmpcache

#endif // CMPCACHE_SIM_CMP_SYSTEM_HH
