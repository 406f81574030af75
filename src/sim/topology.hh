/**
 * @file
 * CmpTopology: the declarative, validated description of the machine
 * shape -- cores, SMT width, L2 clusters, L3 slices, memory controller
 * and their placement on the ring interconnect.
 *
 * The topology is the single owner of agent-id and ring-stop
 * arithmetic. Nothing outside this file computes "numL2s + 1"-style
 * ids: CmpSystem, the Ring, the SnoopCollector, the watchdog and the
 * invariant checker all ask the topology instead (grep-enforced by
 * tests/sim/test_topology_grep.cc).
 *
 * Three interconnect layouts are supported (topology.layout):
 *
 *  - single_ring: the paper's machine. One bi-directional ring; every
 *    agent (L2s, then L3, then the memory controller) occupies one
 *    stop in id order.
 *
 *  - dual_ring: the same placement replicated over two independent
 *    bi-directional data rings. Each transfer picks the lane (and
 *    direction) with the earliest arrival, so data bandwidth doubles
 *    while the address/snoop network is unchanged.
 *
 *  - hier_ring: topology.rings local rings, each holding an equal
 *    share of the L2s plus one bridge stop, joined by a global ring
 *    that carries the bridges, the L3 and the memory controller.
 *    Cross-cluster transfers take up to three legs
 *    (local -> global -> local).
 */

#ifndef CMPCACHE_SIM_TOPOLOGY_HH
#define CMPCACHE_SIM_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/types.hh"

namespace cmpcache
{

/** Interconnect layout (config key topology.layout). */
enum class RingLayout
{
    SingleRing,
    DualRing,
    HierRing,
};

const char *toString(RingLayout layout);
bool tryRingLayoutFromString(const std::string &s, RingLayout &out);

/** Raw topology knobs as configured (topology.* keys). */
struct TopologyParams
{
    /** Physical cores (paper Table 3: 8). */
    unsigned cores = 8;
    /** Hardware threads per core (2-way SMT in the paper). */
    unsigned smt = 2;
    /** Shared L2 caches; cores*smt threads divide evenly across. */
    unsigned l2s = 4;
    /** L3 slices (power of two: the slice hash is a mask). */
    unsigned l3Slices = 4;
    RingLayout layout = RingLayout::SingleRing;
    /** Local rings under hier_ring (>= 2; l2s divide evenly). */
    unsigned rings = 2;
    /** Per-L2 capacity override in KB; 0 keeps l2.size_bytes. */
    unsigned l2KbPerL2 = 0;
    /** Per-slice L3 capacity override in MB; 0 keeps l3.size_bytes
     * (which is the total across slices). */
    unsigned l3MbPerSlice = 0;

    /** Hardware threads. */
    unsigned threads() const { return cores * smt; }

    /** Threads sharing one L2 (0-safe). */
    unsigned
    threadsPerL2() const
    {
        return l2s ? threads() / l2s : 0;
    }

    /**
     * A flat single-ring machine of @p num_l2s L2s with
     * @p threads_per_l2 single-SMT cores each -- the shape the test
     * suites describe with the old three-field idiom.
     */
    static TopologyParams flat(unsigned num_l2s,
                               unsigned threads_per_l2);
};

/**
 * Full consistency check. Each returned string names the offending
 * topology.* config key. Empty means valid.
 */
std::vector<std::string> validateTopology(const TopologyParams &raw);

/**
 * The validated machine shape. Construction only succeeds on a
 * parameter set that passes validateTopology(), so every accessor can
 * assume a consistent geometry. Cheap to copy: components keep their
 * own copy instead of referencing the system's.
 */
class CmpTopology
{
  public:
    /** Validate @p raw and build; SimError (Config) on failure. */
    static Expected<CmpTopology> build(const TopologyParams &raw);

    /** Build-or-die convenience for tests and benches. */
    static CmpTopology flat(unsigned num_l2s, unsigned threads_per_l2);

    const TopologyParams &params() const { return p_; }
    RingLayout layout() const { return p_.layout; }

    unsigned numCores() const { return p_.cores; }
    unsigned numThreads() const { return p_.threads(); }
    unsigned numL2s() const { return p_.l2s; }
    unsigned threadsPerL2() const { return p_.threadsPerL2(); }
    unsigned numL3Slices() const { return p_.l3Slices; }
    /** Bus agents: the L2s plus the L3 plus the memory controller. */
    unsigned numAgents() const { return p_.l2s + 2; }
    /** Ring stops equal agents: every agent owns exactly one stop
     * (bridge stops under hier_ring are interconnect infrastructure,
     * not agents, and are not counted here). */
    unsigned numStops() const { return numAgents(); }

    AgentId l2Agent(unsigned i) const;
    AgentId l3Agent() const { return static_cast<AgentId>(p_.l2s); }
    AgentId memAgent() const;
    bool isL2Agent(AgentId a) const { return a < p_.l2s; }
    /** The L2 cluster thread @p t belongs to. */
    unsigned l2OfThread(unsigned t) const;

    /** The ring stop agent @p a occupies. */
    RingStop stopOfAgent(AgentId a) const;

    // ---- physical data-ring geometry ------------------------------

    /** Physical rings: 1 (single), 2 (dual), rings+1 (hier: local
     * rings then the global ring last). */
    unsigned numRings() const;
    /** Stops on physical ring @p r (bridges included under hier). */
    unsigned ringSize(unsigned r) const;
    /**
     * Interchangeable lanes per route. Under dual_ring every leg may
     * ride either of the two identical rings (route() names ring 0;
     * the caller substitutes any lane < numDataLanes()). 1 otherwise.
     */
    unsigned numDataLanes() const;

    /** One hop sequence on a single physical ring. */
    struct DataLeg
    {
        unsigned ring = 0;   ///< physical ring index
        unsigned srcPos = 0; ///< position on that ring
        unsigned dstPos = 0;
    };

    /**
     * Decompose the @p src -> @p dst data path into at most 3 legs
     * (written to @p legs). Returns the leg count; 0 when src == dst.
     */
    unsigned route(RingStop src, RingStop dst, DataLeg legs[3]) const;

    /** One-line human description ("8c x 2smt, 4xL2 ..."). */
    std::string describe() const;

  private:
    explicit CmpTopology(const TopologyParams &p);

    /** (physical ring, position) of a stop. */
    struct Place
    {
        unsigned ring;
        unsigned pos;
    };
    Place placeOf(RingStop stop) const;

    TopologyParams p_;
    /** hier_ring only: L2s per local ring. */
    unsigned perLocal_ = 0;
};

} // namespace cmpcache

#endif // CMPCACHE_SIM_TOPOLOGY_HH
