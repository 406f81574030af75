#include "sim/topology.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace cmpcache
{

TopologyParams
TopologyParams::flat(unsigned num_l2s, unsigned threads_per_l2)
{
    TopologyParams p;
    p.l2s = num_l2s;
    p.cores = num_l2s * threads_per_l2;
    p.smt = 1;
    return p;
}

std::vector<std::string>
validateTopology(const TopologyParams &p)
{
    std::vector<std::string> errs;

    if (p.cores == 0)
        errs.push_back("topology.cores must be positive");
    if (p.smt == 0)
        errs.push_back("topology.smt must be positive");
    if (p.l2s == 0)
        errs.push_back("topology.l2s must be positive");

    // AgentId is 8 bits and the L3 and memory controller take the two
    // ids above the L2s; ThreadId is 16 bits.
    if (p.l2s > 253) {
        errs.push_back(cstr("topology.l2s (", p.l2s,
                            ") must be <= 253: agent ids are 8-bit "
                            "and the L3 and memory controller occupy "
                            "the two ids above the L2s"));
    }
    if (p.cores != 0 && p.smt != 0
        && p.threads() / p.smt != p.cores) {
        errs.push_back(cstr("topology.cores (", p.cores,
                            ") * topology.smt (", p.smt,
                            ") overflows the thread count"));
    } else if (p.threads() > 65535) {
        errs.push_back(cstr("topology.cores * topology.smt (",
                            p.threads(),
                            " threads) must be <= 65535: thread ids "
                            "are 16-bit"));
    }

    if (p.cores != 0 && p.smt != 0 && p.l2s != 0 && p.l2s <= 253
        && p.threads() % p.l2s != 0) {
        errs.push_back(cstr("topology.cores * topology.smt (",
                            p.threads(),
                            " threads) must divide evenly across "
                            "topology.l2s (", p.l2s, ")"));
    }

    if (p.l3Slices == 0 || !isPowerOf2(p.l3Slices)) {
        errs.push_back(cstr("topology.l3_slices (", p.l3Slices,
                            ") must be a positive power of two: the "
                            "slice hash is an address mask"));
    }

    return errs;
}

Expected<CmpTopology>
CmpTopology::build(const TopologyParams &raw)
{
    const auto errs = validateTopology(raw);
    if (!errs.empty()) {
        std::string msg = "invalid topology:";
        for (const auto &e : errs)
            msg += "\n  - " + e;
        return SimError(SimErrorKind::Config, msg);
    }
    return CmpTopology(raw);
}

CmpTopology
CmpTopology::flat(unsigned num_l2s, unsigned threads_per_l2)
{
    auto t = build(TopologyParams::flat(num_l2s, threads_per_l2));
    if (!t.ok())
        cmp_panic("CmpTopology::flat: ", t.error().message);
    return *t;
}

AgentId
CmpTopology::l2Agent(unsigned i) const
{
    cmp_assert(i < p_.l2s, "l2Agent(", i, ") of ", p_.l2s);
    return static_cast<AgentId>(i);
}

AgentId
CmpTopology::memAgent() const
{
    return static_cast<AgentId>(p_.l2s + 1);
}

unsigned
CmpTopology::l2OfThread(unsigned t) const
{
    cmp_assert(t < numThreads(), "thread ", t, " of ", numThreads());
    return t / threadsPerL2();
}

} // namespace cmpcache
