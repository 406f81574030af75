/**
 * @file
 * Write-back management policy configuration.
 *
 * Bundles every knob of the paper's two mechanisms so a whole
 * experiment row is one PolicyConfig value:
 *
 *  - Baseline:    all clean and dirty victims go to the L3 (which
 *                 still squashes redundant clean write backs itself).
 *  - Wbht:        + selective clean write backs via the per-L2 WBHT
 *                 (section 2), gated by the retry-rate switch.
 *  - WbhtGlobal:  Wbht, but every L2 allocates a WBHT entry when the
 *                 combined response shows an L3-valid line
 *                 (section 2.2 / Figure 3).
 *  - Snarf:       + L2-to-L2 write backs via the snarf table
 *                 (section 3 / Figure 5).
 *  - Combined:    both mechanisms; the paper halves both tables to
 *                 16 K entries to keep total space constant
 *                 (section 5.3 / Figure 7).
 */

#ifndef CMPCACHE_CORE_POLICY_HH
#define CMPCACHE_CORE_POLICY_HH

#include <string>

#include "common/error.hh"
#include "core/retry_monitor.hh"
#include "core/snarf_table.hh"
#include "core/wbht.hh"
#include "mem/replacement.hh"

namespace cmpcache
{

enum class WbPolicy
{
    Baseline,
    Wbht,
    WbhtGlobal,
    Snarf,
    Combined,
};

/** Every policy, in the order `cmpcache list` prints them. */
inline constexpr WbPolicy kAllWbPolicies[] = {
    WbPolicy::Baseline, WbPolicy::Wbht, WbPolicy::WbhtGlobal,
    WbPolicy::Snarf, WbPolicy::Combined};

const char *toString(WbPolicy p);
/** The policy toString() names @p name; SimError (Config) on unknown
 * names. */
Expected<WbPolicy> wbPolicyFromString(const std::string &name);

struct PolicyConfig
{
    WbPolicy policy = WbPolicy::Baseline;

    WriteBackHistoryTable::Params wbht;
    SnarfTable::Params snarf;
    RetryMonitor::Params retry;

    /** Gate WBHT decisions with the retry-rate switch. */
    bool useRetrySwitch = true;

    /** Snarf victim choice: Invalid first, then Shared (paper);
     * false = Invalid only (ablation). */
    bool snarfSharedVictims = true;

    /** Recency position of snarfed fills at the recipient. */
    InsertPos snarfInsert = InsertPos::Mru;

    /** Per-L2 buffers reserved for in-flight snarf accepts; with none
     * free the L2 conservatively declines (never retries). */
    unsigned snarfBuffers = 8;

    /**
     * The paper's future-work replacement extension: when choosing an
     * L2 victim, prefer (among the colder half of the set) lines the
     * WBHT believes are already valid in the L3 -- evicting them is
     * cheap since their write back will be aborted and a refetch only
     * pays the L3 latency. Requires a WBHT policy.
     */
    bool wbhtInformedReplacement = false;

    bool usesWbht() const
    {
        return policy == WbPolicy::Wbht || policy == WbPolicy::WbhtGlobal
               || policy == WbPolicy::Combined;
    }

    bool usesSnarf() const
    {
        return policy == WbPolicy::Snarf
               || policy == WbPolicy::Combined;
    }

    /** All L2s allocate WBHT entries from every combined response. */
    bool globalWbhtAllocation() const
    {
        return policy == WbPolicy::WbhtGlobal;
    }

    /**
     * The paper's Combined configuration: both mechanisms with
     * 16 K-entry tables (half of the 32 K defaults).
     */
    static PolicyConfig combinedDefault();

    /** Policy with paper-default table sizes. */
    static PolicyConfig make(WbPolicy p);
};

} // namespace cmpcache

#endif // CMPCACHE_CORE_POLICY_HH
