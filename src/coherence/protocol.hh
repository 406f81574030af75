/**
 * @file
 * Pure state-transition functions of the snooping coherence protocol.
 *
 * Keeping the protocol as side-effect-free functions makes it
 * exhaustively testable: the unit tests sweep every (state, command)
 * pair and check the global invariants (single owner, no stale
 * exclusivity, dirty data never silently dropped).
 */

#ifndef CMPCACHE_COHERENCE_PROTOCOL_HH
#define CMPCACHE_COHERENCE_PROTOCOL_HH

#include "coherence/bus.hh"
#include "coherence/state.hh"

namespace cmpcache
{
namespace protocol
{

/**
 * Snoop response of a peer L2 cache that holds @p state for the
 * requested line. Write backs are handled separately (snarf logic
 * needs victim-buffer context); this covers Read/ReadExcl/Upgrade.
 */
SnoopResponse l2Snoop(LineState state, BusCmd cmd);

/**
 * Next state of a peer L2 copy after the transaction completes with
 * the given combined outcome.
 */
LineState l2AfterSnoop(LineState state, BusCmd cmd);

/**
 * State installed at the requester when the miss data arrives.
 *
 * @param cmd          the request that was issued
 * @param from         where the data came from
 * @param sharers      true if the combined response saw other L2 copies
 * @param dirty_source true if an L2 supplied from M/T (it keeps the
 *                     intervention role as Tagged)
 */
LineState fillState(BusCmd cmd, CombinedResp from, bool sharers,
                    bool dirty_source);

/**
 * State of a line absorbed via snarfing at the recipient.
 * @param dirty   true for a snarfed dirty write back
 * @param sharers other L2s held valid (clean) copies at combine time
 *                (possible for a Tagged writer's dirty victim)
 */
LineState snarfFillState(bool dirty, bool sharers);

/** Does evicting a line in @p state require a bus write back? */
bool needsWriteBack(LineState state);

} // namespace protocol
} // namespace cmpcache

#endif // CMPCACHE_COHERENCE_PROTOCOL_HH
