#include "coherence/protocol.hh"

#include "common/logging.hh"

namespace cmpcache
{

const char *
toString(LineState s)
{
    switch (s) {
      case LineState::Invalid:
        return "I";
      case LineState::Shared:
        return "S";
      case LineState::SharedLast:
        return "SL";
      case LineState::Exclusive:
        return "E";
      case LineState::Tagged:
        return "T";
      case LineState::Modified:
        return "M";
    }
    return "?";
}

const char *
toString(BusCmd cmd)
{
    switch (cmd) {
      case BusCmd::Read:
        return "Read";
      case BusCmd::ReadExcl:
        return "ReadExcl";
      case BusCmd::Upgrade:
        return "Upgrade";
      case BusCmd::WbClean:
        return "WbClean";
      case BusCmd::WbDirty:
        return "WbDirty";
    }
    return "?";
}

const char *
toString(CombinedResp r)
{
    switch (r) {
      case CombinedResp::Retry:
        return "Retry";
      case CombinedResp::MemData:
        return "MemData";
      case CombinedResp::L3Data:
        return "L3Data";
      case CombinedResp::L2Data:
        return "L2Data";
      case CombinedResp::Upgraded:
        return "Upgraded";
      case CombinedResp::WbAcceptL3:
        return "WbAcceptL3";
      case CombinedResp::WbSnarfed:
        return "WbSnarfed";
      case CombinedResp::WbSquashed:
        return "WbSquashed";
    }
    return "?";
}

namespace protocol
{

SnoopResponse
l2Snoop(LineState state, BusCmd cmd)
{
    cmp_assert(!isWriteBack(cmd),
               "l2Snoop does not handle write backs");
    SnoopResponse r;
    if (state == LineState::Invalid)
        return r;

    r.hasLine = true;
    r.hasDirty = isDirty(state);

    switch (cmd) {
      case BusCmd::Read:
      case BusCmd::ReadExcl:
        // Dirty owners must supply; clean intervention is offered by
        // designated copies (SL / E).
        r.canSupply = canIntervene(state);
        break;
      case BusCmd::Upgrade:
        // Upgrades carry no data; sharers just invalidate.
        break;
      default:
        break;
    }
    return r;
}

LineState
l2AfterSnoop(LineState state, BusCmd cmd)
{
    if (state == LineState::Invalid)
        return state;

    switch (cmd) {
      case BusCmd::Read:
        switch (state) {
          case LineState::Modified:
            // Dirty data now shared; owner keeps intervention and
            // write-back responsibility (POWER4-style T).
            return LineState::Tagged;
          case LineState::Tagged:
            return LineState::Tagged;
          case LineState::Exclusive:
            // Requester takes the SL role; we drop to plain Shared.
            return LineState::Shared;
          case LineState::SharedLast:
            return LineState::Shared;
          case LineState::Shared:
            return LineState::Shared;
          default:
            break;
        }
        break;

      case BusCmd::ReadExcl:
      case BusCmd::Upgrade:
        // Ownership moves to the requester; every other copy dies.
        return LineState::Invalid;

      case BusCmd::WbClean:
      case BusCmd::WbDirty:
        // Peer write backs do not change our copy's state.
        return state;
    }
    cmp_panic("unhandled l2AfterSnoop(", toString(state), ", ",
              toString(cmd), ")");
}

LineState
fillState(BusCmd cmd, CombinedResp from, bool sharers,
          bool dirty_source)
{
    switch (cmd) {
      case BusCmd::Read:
        switch (from) {
          case CombinedResp::MemData:
            // Sole cached copy, clean.
            return sharers ? LineState::SharedLast
                           : LineState::Exclusive;
          case CombinedResp::L3Data:
            // The L3 retains its copy but cannot intervene as fast as
            // an L2; the requester, as last reader, takes the SL role
            // (any previous SL would have intervened itself).
            return LineState::SharedLast;
          case CombinedResp::L2Data:
            // A dirty supplier stays the owner (Tagged) and keeps the
            // intervention role; a clean SL/E supplier hands the role
            // to us.
            return dirty_source ? LineState::Shared
                                : LineState::SharedLast;
          default:
            break;
        }
        break;
      case BusCmd::ReadExcl:
        return LineState::Modified;
      case BusCmd::Upgrade:
        return LineState::Modified;
      default:
        break;
    }
    cmp_panic("unhandled fillState(", toString(cmd), ", ",
              toString(from), ")");
}

LineState
snarfFillState(bool dirty, bool sharers)
{
    // A snarfed clean line was just evicted by its writer and any
    // peer holding a copy would have squashed the (flagged) write
    // back, so the recipient becomes the clean intervention source.
    // A snarfed dirty line is the dirty owner -- Tagged if clean
    // sharers remain (a Tagged writer's victim), Modified if it is
    // the only copy.
    if (!dirty)
        return LineState::SharedLast;
    return sharers ? LineState::Tagged : LineState::Modified;
}

bool
needsWriteBack(LineState state)
{
    // In the studied system *all* valid victims produce write backs
    // (clean ones to cut the memory latency of refetches); the
    // WBHT's whole purpose is to skip the redundant clean ones.
    return isValid(state);
}

} // namespace protocol
} // namespace cmpcache
