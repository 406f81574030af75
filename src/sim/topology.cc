#include "sim/topology.hh"

#include <sstream>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace cmpcache
{

const char *
toString(RingLayout layout)
{
    switch (layout) {
      case RingLayout::SingleRing:
        return "single_ring";
      case RingLayout::DualRing:
        return "dual_ring";
      case RingLayout::HierRing:
        return "hier_ring";
    }
    cmp_panic("bad RingLayout ", static_cast<int>(layout));
}

bool
tryRingLayoutFromString(const std::string &s, RingLayout &out)
{
    if (s == "single_ring") {
        out = RingLayout::SingleRing;
    } else if (s == "dual_ring") {
        out = RingLayout::DualRing;
    } else if (s == "hier_ring") {
        out = RingLayout::HierRing;
    } else {
        return false;
    }
    return true;
}

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

    if (p.layout == RingLayout::HierRing) {
        if (p.rings < 2) {
            errs.push_back(cstr("topology.rings (", p.rings,
                                ") must be >= 2 when topology.layout "
                                "is hier_ring"));
        } else if (p.l2s != 0 && p.l2s % p.rings != 0) {
            errs.push_back(cstr("topology.l2s (", p.l2s,
                                ") must divide evenly across "
                                "topology.rings (", p.rings,
                                ") when topology.layout is "
                                "hier_ring"));
        }
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

CmpTopology::CmpTopology(const TopologyParams &p) : p_(p)
{
    if (p_.layout == RingLayout::HierRing)
        perLocal_ = p_.l2s / p_.rings;
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

RingStop
CmpTopology::stopOfAgent(AgentId a) const
{
    cmp_assert(a < numAgents(), "agent ", unsigned{a}, " of ",
               numAgents());
    // Placement convention across every layout: agents own stops in
    // id order (L2s first, then L3, then memory). Which physical ring
    // a stop sits on is placeOf()'s business.
    return RingStop(a);
}

unsigned
CmpTopology::numRings() const
{
    switch (p_.layout) {
      case RingLayout::SingleRing:
        return 1;
      case RingLayout::DualRing:
        return 2;
      case RingLayout::HierRing:
        return p_.rings + 1;
    }
    cmp_panic("bad layout");
}

unsigned
CmpTopology::ringSize(unsigned r) const
{
    cmp_assert(r < numRings(), "ring ", r, " of ", numRings());
    if (p_.layout != RingLayout::HierRing)
        return numStops();
    // Local rings carry their L2 share plus the bridge stop; the
    // global ring (last index) carries the bridges, the L3 and the
    // memory controller.
    return r < p_.rings ? perLocal_ + 1 : p_.rings + 2;
}

unsigned
CmpTopology::numDataLanes() const
{
    return p_.layout == RingLayout::DualRing ? 2 : 1;
}

CmpTopology::Place
CmpTopology::placeOf(RingStop stop) const
{
    const unsigned s = stop.value();
    cmp_assert(s < numStops(), "stop ", s, " of ", numStops());
    if (p_.layout != RingLayout::HierRing)
        return Place{0, s};
    const unsigned global = p_.rings;
    if (s < p_.l2s)
        return Place{s / perLocal_, s % perLocal_};
    // L3 and memory sit on the global ring after the bridges.
    return Place{global, p_.rings + (s - p_.l2s)};
}

unsigned
CmpTopology::route(RingStop src, RingStop dst, DataLeg legs[3]) const
{
    if (src == dst)
        return 0;
    const Place a = placeOf(src);
    const Place b = placeOf(dst);
    if (a.ring == b.ring) {
        legs[0] = DataLeg{a.ring, a.pos, b.pos};
        return 1;
    }

    // Hierarchical cross-ring path: exit over the local bridge (the
    // last local position), cross the global ring between bridges
    // (bridge of local ring r sits at global position r), and enter
    // through the destination's bridge.
    const unsigned global = p_.rings;
    unsigned n = 0;
    unsigned src_global = a.pos;
    unsigned dst_global = b.pos;
    if (a.ring != global) {
        legs[n++] = DataLeg{a.ring, a.pos, perLocal_};
        src_global = a.ring;
    }
    if (b.ring != global)
        dst_global = b.ring;
    legs[n++] = DataLeg{global, src_global, dst_global};
    if (b.ring != global)
        legs[n++] = DataLeg{b.ring, perLocal_, b.pos};
    return n;
}

std::string
CmpTopology::describe() const
{
    std::ostringstream os;
    os << p_.cores << "c";
    if (p_.smt > 1)
        os << "x" << p_.smt << "smt";
    os << " " << p_.l2s << "xL2 " << p_.l3Slices << "xL3sl "
       << toString(p_.layout);
    if (p_.layout == RingLayout::HierRing) {
        os << "(" << p_.rings << "x" << (perLocal_ + 1) << "+"
           << (p_.rings + 2) << ")";
    } else {
        os << "(" << numStops() << ")";
    }
    return os.str();
}

} // namespace cmpcache
