#include "coherence/snoop_collector.hh"

#include "common/logging.hh"

namespace cmpcache
{

SnoopCollector::SnoopCollector(stats::Group *parent,
                               const CmpTopology &topo)
    : stats::Group(parent, "snoop_collector"),
      topo_(topo),
      combines_(this, "combines", "combined responses produced"),
      retries_(this, "retries", "transactions answered with Retry"),
      interventions_(this, "interventions",
                     "reads serviced by L2-to-L2 transfer"),
      dirtyInterventions_(this, "dirty_interventions",
                          "interventions sourced from M/T copies"),
      l3Supplies_(this, "l3_supplies", "reads serviced by the L3"),
      memSupplies_(this, "mem_supplies", "reads serviced by memory"),
      upgrades_(this, "upgrades", "granted upgrade transactions"),
      wbAccepts_(this, "wb_accepts", "write backs accepted by the L3"),
      wbSquashes_(this, "wb_squashes",
                  "write backs squashed (valid copy already present)"),
      wbSnarfs_(this, "wb_snarfs",
                "write backs absorbed by a peer L2 (snarfed)")
{
}

CombinedResult
SnoopCollector::combine(const BusRequest &req,
                        const std::vector<SnoopResponse> &responses)
{
    cmp_assert(responses.size() == topo_.numAgents(), "combine of ",
               responses.size(), " responses for ", topo_.numAgents(),
               " agents");
    ++combines_;
    CombinedResult res = isWriteBack(req.cmd)
                             ? combineWriteBack(req, responses)
                             : combineAccess(req, responses);
    if (res.resp == CombinedResp::Retry)
        ++retries_;
    return res;
}

CombinedResult
SnoopCollector::combineAccess(const BusRequest &req,
                              const std::vector<SnoopResponse> &rs)
{
    CombinedResult out;

    bool retry = false;
    AgentId supplier = InvalidAgent;
    AgentId dirty_supplier = InvalidAgent;
    for (unsigned a = 0; a < rs.size(); ++a) {
        const SnoopResponse &r = rs[a];
        retry = retry || r.retry;
        out.l3HasLine = out.l3HasLine || r.l3Hit;
        if (r.hasLine && !r.l3Hit)
            out.otherSharers = true;
        if (r.canSupply && !r.l3Hit && supplier == InvalidAgent)
            supplier = static_cast<AgentId>(a);
        if (r.hasDirty)
            dirty_supplier = static_cast<AgentId>(a);
    }

    if (retry) {
        out.resp = CombinedResp::Retry;
        return out;
    }

    // A dirty copy must win arbitration over clean interventions.
    if (dirty_supplier != InvalidAgent)
        supplier = dirty_supplier;

    switch (req.cmd) {
      case BusCmd::Read:
      case BusCmd::ReadExcl:
        if (supplier != InvalidAgent) {
            out.resp = CombinedResp::L2Data;
            out.source = supplier;
            out.dirtySource = rs[supplier].hasDirty;
            ++interventions_;
            if (out.dirtySource)
                ++dirtyInterventions_;
        } else if (out.l3HasLine) {
            out.resp = CombinedResp::L3Data;
            ++l3Supplies_;
        } else {
            out.resp = CombinedResp::MemData;
            ++memSupplies_;
        }
        return out;

      case BusCmd::Upgrade:
        // Serialized at the collector: the upgrade wins and all other
        // copies invalidate.
        out.resp = CombinedResp::Upgraded;
        ++upgrades_;
        return out;

      default:
        cmp_panic("combineAccess on write back");
    }
}

CombinedResult
SnoopCollector::combineWriteBack(const BusRequest &req,
                                 const std::vector<SnoopResponse> &rs)
{
    CombinedResult out;

    bool l3_retry = false;
    bool l3_accept = false;
    bool peer_has_clean_copy = false;
    bool any_snarfer = false;
    for (const auto &r : rs) {
        out.l3HasLine = out.l3HasLine || r.l3Hit;
        if (r.l3Hit || r.wbAccept) {
            l3_retry = l3_retry || r.retry;
        } else if (r.hasLine && !r.hasDirty) {
            peer_has_clean_copy = true;
        }
        if (r.retry && !r.hasLine && !r.l3Hit && !r.wbAccept
            && !r.snarfAccept) {
            // Retry from the agent that would have to process the
            // write back (the L3 with full queues).
            l3_retry = true;
        }
        l3_accept = l3_accept || r.wbAccept;
        any_snarfer = any_snarfer || r.snarfAccept;
        if (r.hasLine && !r.l3Hit)
            out.otherSharers = true;
    }

    // Squash wins when the L3 could actually process the snoop: a
    // valid copy already exists and the data transfer is cancelled
    // outright (baseline behaviour for the L3; peer-L2 squash only
    // arises for snarf-flagged write backs, which are the only ones
    // peers snoop their tags for).
    if (req.cmd == BusCmd::WbClean
        && ((out.l3HasLine && !l3_retry) || peer_has_clean_copy)) {
        out.resp = CombinedResp::WbSquashed;
        ++wbSquashes_;
        return out;
    }

    // A peer willing to absorb the line keeps it on chip; preferred
    // over the L3 since subsequent L2-to-L2 transfers are >2x faster.
    if (any_snarfer) {
        out.resp = CombinedResp::WbSnarfed;
        out.source = pickSnarfWinner(rs);
        ++wbSnarfs_;
        return out;
    }

    if (l3_accept) {
        out.resp = CombinedResp::WbAcceptL3;
        ++wbAccepts_;
        return out;
    }

    // Resource conflict everywhere: retry (the modelled protocol; the
    // alternative of dumping to memory is not modelled, per the
    // paper).
    out.resp = CombinedResp::Retry;
    return out;
}

AgentId
SnoopCollector::pickSnarfWinner(const std::vector<SnoopResponse> &rs)
{
    // Fair round-robin over L2 agent ids, starting after the last
    // winner.
    const unsigned n = topo_.numL2s();
    for (unsigned k = 0; k < n; ++k) {
        const AgentId cand = topo_.l2Agent((rrNext_ + k) % n);
        if (rs[cand].snarfAccept) {
            rrNext_ = (cand + 1u) % n;
            return cand;
        }
    }
    cmp_panic("pickSnarfWinner called with no willing snarfer");
}

} // namespace cmpcache
