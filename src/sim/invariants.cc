#include "sim/invariants.hh"

#include <map>
#include <sstream>

#include "common/logging.hh"
#include "sim/cmp_system.hh"

namespace cmpcache
{

namespace
{

void
record(CoherenceCheck &out, std::size_t max_messages, Addr line,
       const std::string &what)
{
    ++out.violations;
    if (out.messages.size() >= max_messages)
        return;
    std::ostringstream os;
    os << what << ", line 0x" << std::hex << line;
    out.messages.push_back(os.str());
}

} // namespace

std::string
CoherenceCheck::report() const
{
    std::string s;
    for (const auto &m : messages) {
        s += m;
        s += '\n';
    }
    if (violations > messages.size())
        s += cstr("... and ", violations - messages.size(), " more\n");
    return s;
}

CoherenceCheck
checkCoherence(CmpSystem &sys, const CoherenceCheckOptions &opts)
{
    const std::size_t max_messages = opts.maxMessages;

    // Gather every valid L2 copy per line address.
    std::map<Addr, std::vector<LineState>> copies;
    for (unsigned i = 0; i < sys.numL2s(); ++i) {
        sys.l2(i).tags().forEach([&](Addr line, const TagEntry &e) {
            if (e.valid())
                copies[line].push_back(e.state);
        });
    }

    CoherenceCheck out;
    for (const auto &[line, states] : copies) {
        // Functional warmup can seed one line writable into several
        // L2s -- states a running machine never produces. Skip them,
        // mirroring the conformance oracle's warmup taint.
        if (sys.isWarmupApproximate(line)) {
            ++out.linesSkipped;
            continue;
        }
        ++out.linesChecked;
        unsigned owners = 0;   // M or T
        unsigned modified = 0; // M specifically
        unsigned excl = 0;     // E
        unsigned sl = 0;       // SL
        for (const auto s : states) {
            owners += s == LineState::Modified
                      || s == LineState::Tagged;
            modified += s == LineState::Modified;
            excl += s == LineState::Exclusive;
            sl += s == LineState::SharedLast;
        }
        if (owners > 1)
            record(out, max_messages, line,
                   cstr(owners, " dirty owners (M/T)"));
        if (modified && states.size() > 1)
            record(out, max_messages, line,
                   "M alongside other copies");
        if (excl && states.size() > 1)
            record(out, max_messages, line,
                   "E alongside other copies");
        if (sl > 1)
            record(out, max_messages, line,
                   cstr(sl, " SL intervention sources"));
        // A store gaining ownership invalidates the L3 copy at
        // combine, so an owned L2 line must not still be valid off
        // chip. (Modified/Exclusive/Tagged; plain Shared copies
        // coexist with the L3 by design.)
        if (opts.checkL3 && (owners || excl)
            && sys.l3().hasLineValid(line))
            record(out, max_messages, line,
                   "stale L3 copy alongside an owned L2 copy");
    }

    // On a drained machine every snarf reservation must have been
    // consumed or aborted; a leftover entry means a transaction
    // leaked its bookkeeping.
    if (opts.quiesced) {
        for (unsigned i = 0; i < sys.numL2s(); ++i) {
            if (const auto pending = sys.l2(i).pendingSnarfCount()) {
                ++out.violations;
                if (out.messages.size() < max_messages)
                    out.messages.push_back(cstr(
                        "dangling snarf reservations in quiesced L2 ", i,
                        ": ", pending));
            }
        }
    }
    return out;
}

CoherenceCheck
checkDrainedCoherence(CmpSystem &sys)
{
    CoherenceCheckOptions opts;
    opts.quiesced = true;
    return checkCoherence(sys, opts);
}

} // namespace cmpcache
