/**
 * @file
 * Bus transaction types exchanged over the intrachip ring.
 */

#ifndef CMPCACHE_COHERENCE_BUS_HH
#define CMPCACHE_COHERENCE_BUS_HH

#include <cstdint>

#include "common/types.hh"

namespace cmpcache
{

/** Address-ring transaction commands. */
enum class BusCmd : std::uint8_t
{
    Read,     ///< load / instruction-fetch miss
    ReadExcl, ///< store miss (read with intent to modify)
    Upgrade,  ///< store hit on a Shared/SharedLast copy (DClaim)
    WbClean,  ///< clean victim write back towards the L3
    WbDirty,  ///< dirty victim write back
};

constexpr bool
isWriteBack(BusCmd cmd)
{
    return cmd == BusCmd::WbClean || cmd == BusCmd::WbDirty;
}

const char *toString(BusCmd cmd);

/** One address-ring request. */
struct BusRequest
{
    /** Line-aligned address. */
    Addr lineAddr = 0;
    BusCmd cmd = BusCmd::Read;
    AgentId requester = InvalidAgent;
    /**
     * Set on write backs whose line the snarf table predicts will be
     * reused: peer L2 caches snoop their tags and may absorb it.
     */
    bool snarfHint = false;
    /** Unique transaction id (assigned by the ring). */
    std::uint64_t txnId = 0;
};

/**
 * One agent's snoop response to a request. The ring hands the
 * collector one per agent, indexed by AgentId; the requester's slot
 * stays default-constructed, which no combine rule reacts to.
 */
struct SnoopResponse
{
    /** Resource conflict: the transaction must be retried. */
    bool retry = false;
    /** Agent holds a valid copy (any valid state). */
    bool hasLine = false;
    /** Agent holds the line dirty (M/T). */
    bool hasDirty = false;
    /** Agent offers to source the data (M/T/SL/E intervention or L3
     * hit). */
    bool canSupply = false;
    /** L3 only: the directory hit (line valid in the L3). */
    bool l3Hit = false;
    /** L3 only: willing to absorb this write back. */
    bool wbAccept = false;
    /** L2 only: willing to absorb (snarf) this write back. */
    bool snarfAccept = false;
};

/** Final outcome of a transaction, computed by the Snoop Collector. */
enum class CombinedResp : std::uint8_t
{
    Retry,      ///< re-arbitrate later
    MemData,    ///< no cached copy: memory supplies the line
    L3Data,     ///< the L3 victim cache supplies the line
    L2Data,     ///< a peer L2 intervention supplies the line
    Upgraded,   ///< upgrade granted; sharers invalidated
    WbAcceptL3, ///< write back accepted by the L3
    WbSnarfed,  ///< write back absorbed by a peer L2
    WbSquashed, ///< redundant write back dropped (valid copy exists)
};

const char *toString(CombinedResp r);

/** Combined snoop response broadcast to every bus agent. */
struct CombinedResult
{
    CombinedResp resp = CombinedResp::Retry;
    /** Data source / snarf winner (valid for L2Data / WbSnarfed). */
    AgentId source = InvalidAgent;
    /** The L3 directory hit (visible to all agents; drives WBHT
     * allocation, including the global-allocation variant). */
    bool l3HasLine = false;
    /** Some peer L2 holds a valid copy. */
    bool otherSharers = false;
    /** The supplying cache held the line dirty (M/T): it keeps the
     * intervention role, so the requester installs plain Shared. */
    bool dirtySource = false;
};

} // namespace cmpcache

#endif // CMPCACHE_COHERENCE_BUS_HH
