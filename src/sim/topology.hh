/**
 * @file
 * CmpTopology: the declarative, validated description of the machine
 * shape -- cores, SMT width, L2 clusters, L3 slices, memory controller
 * and their placement on the ring interconnect.
 *
 * The topology is the single owner of agent-id arithmetic. Nothing
 * outside this file computes "numL2s + 1"-style ids: CmpSystem, the
 * Ring, the SnoopCollector, the watchdog and the invariant checker
 * all ask the topology instead (grep-enforced by
 * tests/sim/test_topology_grep.cc).
 *
 * The interconnect is the paper's: one bi-directional ring on which
 * every agent (the L2s, then the L3, then the memory controller)
 * occupies one stop in id order, so an agent's id is also its ring
 * stop.
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

    unsigned numCores() const { return p_.cores; }
    unsigned numThreads() const { return p_.threads(); }
    unsigned numL2s() const { return p_.l2s; }
    unsigned threadsPerL2() const { return p_.threadsPerL2(); }
    unsigned numL3Slices() const { return p_.l3Slices; }
    /** Bus agents, and ring stops: the L2s plus the L3 plus the
     * memory controller. */
    unsigned numAgents() const { return p_.l2s + 2; }

    AgentId l2Agent(unsigned i) const;
    AgentId l3Agent() const { return static_cast<AgentId>(p_.l2s); }
    AgentId memAgent() const;
    bool isL2Agent(AgentId a) const { return a < p_.l2s; }
    /** The L2 cluster thread @p t belongs to. */
    unsigned l2OfThread(unsigned t) const;

  private:
    explicit CmpTopology(const TopologyParams &p) : p_(p) {}

    TopologyParams p_;
};

} // namespace cmpcache

#endif // CMPCACHE_SIM_TOPOLOGY_HH
