#include "check/version_oracle.hh"

#include <algorithm>
#include <sstream>

#include "common/error.hh"

namespace cmpcache
{

VersionOracle::Holder *
VersionOracle::find(LineShadow &s, AgentId agent)
{
    for (auto &h : s.holders)
        if (h.agent == agent)
            return &h;
    return nullptr;
}

void
VersionOracle::setHolder(LineShadow &s, AgentId agent,
                         std::uint64_t version, bool dirty)
{
    if (Holder *h = find(s, agent)) {
        h->version = version;
        h->dirty = dirty;
        return;
    }
    s.holders.push_back(Holder{agent, version, dirty});
}

bool
VersionOracle::eraseHolder(LineShadow &s, AgentId agent, Holder &out)
{
    for (auto it = s.holders.begin(); it != s.holders.end(); ++it) {
        if (it->agent == agent) {
            out = *it;
            s.holders.erase(it);
            return true;
        }
    }
    return false;
}

bool
VersionOracle::anyAt(const LineShadow &s, std::uint64_t version) const
{
    for (const auto &h : s.holders)
        if (h.version == version)
            return true;
    return false;
}

bool
VersionOracle::anyDirtyAt(const LineShadow &s,
                          std::uint64_t version) const
{
    for (const auto &h : s.holders)
        if (h.dirty && h.version == version)
            return true;
    return false;
}

std::uint64_t
VersionOracle::maxAvailable(const LineShadow &s) const
{
    std::uint64_t best = s.mem;
    for (const auto &h : s.holders)
        best = std::max(best, h.version);
    return best;
}

void
VersionOracle::reconcileAccountedDrop(LineShadow &s,
                                      const Holder &dropped)
{
    if (dropped.version != s.committed)
        return;
    if (!anyAt(s, s.committed) && s.mem != s.committed) {
        // The last copy of the newest version is gone by an accounted
        // loss: the machine can only ever serve an older version
        // again, so the shadow model degrades with it.
        s.committed = maxAvailable(s);
        s.lossAccounted = true;
        ++reconciled_;
        return;
    }
    if (dropped.dirty && !anyDirtyAt(s, s.committed)
        && s.mem != s.committed) {
        // Clean equivalents survive, but nobody carries write-back
        // responsibility for them any more: if they too get dropped
        // later (legal for clean copies), that is this loss's fault.
        s.lossAccounted = true;
        ++reconciled_;
    }
}

void
VersionOracle::raise(const LineShadow &s, Tick now, Addr line,
                     AgentId agent, std::uint64_t expected,
                     std::uint64_t observed, const std::string &what)
{
    if (s.tainted || violation_.armed)
        return;
    std::ostringstream os;
    os << "coherence conformance violation at tick " << now << ": "
       << what << ", line 0x" << std::hex << line << std::dec
       << ", agent " << static_cast<unsigned>(agent)
       << ", expected version " << expected << ", observed version "
       << observed;
    violation_.armed = true;
    violation_.message = os.str();
}

void
VersionOracle::validateSupplier(LineShadow &s, Tick now, Addr line,
                                AgentId agent, const char *who)
{
    ++checked_;
    Holder *h = find(s, agent);
    if (!h) {
        raise(s, now, line, agent,
              s.committed, 0,
              std::string(who) + " chosen as data source but holds no "
              "shadow copy");
        return;
    }
    // An accounted loss already degraded this line (write-back
    // responsibility for the newest version was deliberately dropped):
    // downstream stale supplies are that loss's fault, not a new bug.
    if (h->version != s.committed && !s.lossAccounted)
        raise(s, now, line, agent, s.committed, h->version,
              std::string(who) + " supplies stale data");
}

void
VersionOracle::onStore(AgentId agent, Addr line, Tick now)
{
    LineShadow &s = shadow(line);
    Holder *h = find(s, agent);
    if (!h) {
        raise(s, now, line, agent, s.committed, 0,
              "store committed at an agent with no shadow copy");
    } else if (h->version != s.committed && !s.lossAccounted
               && !(h->dirty && anyDirtyAt(s, s.committed))) {
        // Tolerated when this dirty copy is a covered duplicate: the
        // architected snarf-after-refetch window can leave two live
        // dirty lineages of one line (the snarf winner and the
        // refetching issuer), and whichever stores later commits on
        // the one that briefly fell behind. As long as a dirty holder
        // covers the newest version no data is lost; the store folds
        // the lineages back into a single newest version below.
        raise(s, now, line, agent, s.committed, h->version,
              "store committed on a stale copy");
    }
    ++s.committed;
    setHolder(s, agent, s.committed, true);
    ++stamped_;
}

void
VersionOracle::onSeedCopy(AgentId agent, Addr line, bool dirty)
{
    setHolder(shadow(line), agent, 0, dirty);
}

void
VersionOracle::sealSeeding()
{
    for (auto &kv : lines_) {
        unsigned l2_holders = 0;
        for (const auto &h : kv.second.holders)
            if (h.agent != l3Agent_)
                ++l2_holders;
        if (l2_holders >= 2) {
            kv.second.tainted = true;
            ++tainted_;
        }
    }
}

void
VersionOracle::onDropCopy(AgentId agent, Addr line, Tick now)
{
    (void)now;
    auto it = lines_.find(line);
    if (it == lines_.end())
        return;
    Holder dropped;
    if (eraseHolder(it->second, agent, dropped))
        reconcileAccountedDrop(it->second, dropped);
}

void
VersionOracle::onLocalSquash(AgentId agent, Addr line, Tick now)
{
    auto it = lines_.find(line);
    if (it == lines_.end())
        return;
    LineShadow &s = it->second;
    Holder dropped;
    if (!eraseHolder(s, agent, dropped))
        return;
    if (dropped.version == s.committed && !anyAt(s, s.committed)
        && s.mem != s.committed) {
        if (s.lossAccounted) {
            // Downstream effect of an earlier accounted loss.
            s.committed = maxAvailable(s);
            ++reconciled_;
        } else {
            raise(s, now, line, agent, s.committed, dropped.version,
                  "squashed write back dropped the only copy of the "
                  "newest version");
        }
    }
}

void
VersionOracle::onWbArrivedL3(Addr line, bool dirty, Tick now)
{
    (void)now;
    auto it = lines_.find(line);
    if (it == lines_.end())
        return;
    LineShadow &s = it->second;
    if (s.l3Inflight > 0)
        --s.l3Inflight;
    // An invalidation may have overtaken the delivery; the machine
    // installs the copy regardless, so the shadow must track it (at
    // the committed version -- the lineage convention for the
    // architected windows).
    if (Holder *l3 = find(s, l3Agent_))
        l3->dirty = l3->dirty || dirty;
    else
        setHolder(s, l3Agent_, s.committed, dirty);
}

void
VersionOracle::onMemoryWrite(AgentId l3_agent, Addr line, Tick now)
{
    (void)now;
    auto it = lines_.find(line);
    if (it == lines_.end())
        return;
    Holder dropped;
    if (eraseHolder(it->second, l3_agent, dropped))
        it->second.mem = std::max(it->second.mem, dropped.version);
}

void
VersionOracle::dropOthers(LineShadow &s, AgentId keep)
{
    // Invalidations broadcast by an effective ReadExcl / Upgrade.
    // Set the survivor up first so reconciliation sees it.
    for (std::size_t i = 0; i < s.holders.size();) {
        if (s.holders[i].agent == keep) {
            ++i;
            continue;
        }
        const Holder dropped = s.holders[i];
        s.holders.erase(s.holders.begin()
                        + static_cast<std::ptrdiff_t>(i));
        reconcileAccountedDrop(s, dropped);
    }
}

void
VersionOracle::applyFill(LineShadow &s, const BusRequest &req)
{
    const bool store_intent = req.cmd != BusCmd::Read;
    if (Holder *h = find(s, req.requester)) {
        // The requester already tracks a copy (self-race: the line is
        // parked in its own write-back queue). Keep the newer version
        // and its write-back responsibility.
        h->version = std::max(h->version, s.committed);
        h->dirty = h->dirty || store_intent;
        return;
    }
    setHolder(s, req.requester, s.committed, store_intent);
}

void
VersionOracle::onCombined(const BusRequest &req,
                          const CombinedResult &res, Tick now)
{
    const Addr line = req.lineAddr;
    LineShadow &s = shadow(line);

    // An L2 can legitimately demand-miss a line still parked in
    // its own write-back queue and be served older data by the
    // L3 or memory -- the newest version never left the
    // requester, so that stale supply is the machine's accepted
    // self-race, not a conformance bug.
    const Holder *rh = find(s, req.requester);
    const bool self_race = rh && rh->version == s.committed;

    switch (res.resp) {
      case CombinedResp::Retry:
        break;

      case CombinedResp::L2Data:
        if (!self_race)
            validateSupplier(s, now, line, res.source, "peer L2");
        else
            ++checked_;
        applyFill(s, req);
        if (req.cmd == BusCmd::ReadExcl)
            dropOthers(s, req.requester);
        break;

      case CombinedResp::L3Data:
        if (!self_race)
            validateSupplier(s, now, line, l3Agent_, "L3");
        else
            ++checked_;
        applyFill(s, req);
        if (req.cmd == BusCmd::ReadExcl)
            dropOthers(s, req.requester);
        break;

      case CombinedResp::MemData:
        ++checked_;
        // Tolerated while an accepted write back's data is still
        // crossing the data ring to the L3 (s.l3Inflight): the
        // machine's L3 cannot snoop-hit or supply it yet, so
        // memory is its only source -- an architected window.
        if (!self_race && s.l3Inflight == 0
            && s.mem != s.committed && !s.lossAccounted)
            raise(s, now, line, req.requester, s.committed, s.mem,
                  "memory supplies stale data");
        applyFill(s, req);
        if (req.cmd == BusCmd::ReadExcl)
            dropOthers(s, req.requester);
        break;

      case CombinedResp::Upgraded: {
        ++checked_;
        // Tolerant when the requester's entry is gone: the L2
        // notices the lost copy at observe time and refetches
        // with ReadExcl instead of writing.
        if (Holder *h = find(s, req.requester)) {
            if (h->version != s.committed && !s.lossAccounted)
                raise(s, now, line, req.requester, s.committed,
                      h->version,
                      "upgrade granted on a stale copy");
            h->dirty = true;
        }
        dropOthers(s, req.requester);
        break;
      }

      case CombinedResp::WbAcceptL3: {
        ++checked_;
        Holder *h = find(s, req.requester);
        if (!h) {
            raise(s, now, line, req.requester, s.committed, 0,
                  "write back from an agent with no shadow copy");
            break;
        }
        // Only a *dirty* write back asserts "this is the newest
        // data": a clean one can legally carry an older version
        // (a stale copy created by the architected snarf-after-
        // refetch window being cycled back out). And even a dirty
        // one is tolerated while another dirty holder still
        // covers the newest version -- snarfing an own write back
        // that raced the issuer's refetch duplicates the dirty
        // copy, and the duplicate goes stale at the next silent
        // store. Stale copies are tracked at their true version
        // and flagged the moment they actually supply a demand
        // request.
        if (req.cmd == BusCmd::WbDirty
            && h->version != s.committed && !s.lossAccounted
            && !anyDirtyAt(s, s.committed))
            raise(s, now, line, req.requester, s.committed,
                  h->version, "write back carries stale data");
        // The version transfers to the L3; whether the issuer
        // keeps a copy is its own call (it may have refetched the
        // line while the write back waited), reported via
        // onDropCopy / onLocalSquash from the issuer itself.
        const std::uint64_t v = h->version;
        Holder *l3 = find(s, l3Agent_);
        const bool dirty =
            req.cmd == BusCmd::WbDirty || (l3 && l3->dirty);
        setHolder(s, l3Agent_, l3 ? std::max(l3->version, v) : v,
                  dirty);
        // The data still has to cross the data ring; until
        // onWbArrivedL3 the machine's L3 cannot serve it.
        ++s.l3Inflight;
        break;
      }

      case CombinedResp::WbSnarfed: {
        ++checked_;
        Holder *h = find(s, req.requester);
        if (!h) {
            raise(s, now, line, req.requester, s.committed, 0,
                  "snarfed write back from an agent with no "
                  "shadow copy");
            break;
        }
        // Same rules as WbAcceptL3: a snarfed clean write back may
        // legally move an architected-stale copy between caches,
        // and a stale dirty one is covered while another dirty
        // holder keeps the newest version; the snarfer is tracked
        // at the true (possibly old) version so a later stale
        // supply flags.
        if (req.cmd == BusCmd::WbDirty
            && h->version != s.committed && !s.lossAccounted
            && !anyDirtyAt(s, s.committed))
            raise(s, now, line, req.requester, s.committed,
                  h->version, "snarfed write back carries stale "
                  "data");
        setHolder(s, res.source, h->version,
                  req.cmd == BusCmd::WbDirty);
        break;
      }

      case CombinedResp::WbSquashed:
        // The squash drops the issuer's queued copy; the issuer
        // reports it via onLocalSquash (which flags if nothing
        // newer survives) once it knows whether its tags still
        // hold the line.
        ++checked_;
        break;
    }
    throwIfViolated();
}

void
VersionOracle::throwIfViolated()
{
    if (!violation_.armed)
        return;
    std::string message = violation_.message;
    // Disarm so a handler inspecting the system afterwards does not
    // re-trip on every later serial point.
    violation_.armed = false;
    if (snapshot_)
        message += "\n" + snapshot_();
    throw SimException(SimError(SimErrorKind::Conformance, message));
}

bool
VersionOracle::violated() const
{
    return violation_.armed;
}

std::string
VersionOracle::violationMessage() const
{
    return violation_.message;
}

} // namespace cmpcache
