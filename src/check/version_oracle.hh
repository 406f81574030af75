/**
 * @file
 * Online coherence conformance oracle (the check.oracle config key).
 *
 * The oracle keeps a shadow write-epoch model of every cache line the
 * simulated machine touches: each committed store bumps the line's
 * version, and every copy of the line (per-L2, L3) is tracked with the
 * version it was filled or written at. Memory carries its own version.
 * Because the timing simulator carries no data, the version number
 * stands in for the line's contents: two copies at the same version
 * are byte-identical by construction, and a supplier whose version is
 * below the newest committed one is serving *stale data*.
 *
 * Validation happens at the protocol's own serialization point -- the
 * combined response -- where the ring reports every transaction to
 * the oracle (Ring::setConformance). Any stale supply (demand fill
 * from an L2, the L3 or memory; a won snarf; a write back carrying an
 * old version) raises a structured SimException of kind Conformance
 * naming the exact tick, line, supplying agent and the expected vs
 * observed version, plus a machine-state snapshot -- so the whole
 * PR-1 family of snarf/write-back races is caught at the cycle it
 * happens instead of as silent timing skew.
 *
 * Tolerance rules (why a green run stays green):
 *
 *  - The simulator *accounts* a few deliberate data losses (a won
 *    dirty snarf dropped because the winner's WB queue filled up;
 *    the L3 invalidating a copy on Upgrade without a castout). The
 *    oracle mirrors them: when an accounted drop removes the last
 *    copy of the newest version, the committed version rolls back to
 *    the newest surviving copy instead of flagging, and the line is
 *    marked so later downstream effects of the same loss do not
 *    false-positive either.
 *  - Functional warmup seeds each L2 independently and can install
 *    the same line writable in two L2s -- a known approximation. Such
 *    multi-seeded lines are tainted at seal time and exempt from
 *    validation; everything else keeps full rigor.
 *  - Three architected races are modeled, not flagged: an L2 that
 *    demand-misses a line parked in its own write-back queue is
 *    legally served older data (the newest version never left it);
 *    while an accepted write back's data is still crossing the data
 *    ring to the L3 a concurrent miss is legally served by memory
 *    (onWbArrivedL3 closes that window); and snarfing an L2's *own*
 *    queued write back while that L2 refetches the line duplicates
 *    its dirty lineage, so a stale clean write back, a stale dirty
 *    write back whose newest version another dirty holder still
 *    covers, and a store committing on the briefly-behind duplicate
 *    are tolerated (tracked at their true versions) -- the raise
 *    fires the moment a stale copy actually *supplies* a demand
 *    request.
 *
 * Threads: none. Each oracle belongs to one CmpSystem, whose hooks
 * all run on its one event queue. Violations are *recorded* first and
 * thrown at the next combine (or by throwIfViolated() at end of run),
 * so a violation surfaces at the ring's serialization point whichever
 * hook found it.
 */

#ifndef CMPCACHE_CHECK_VERSION_ORACLE_HH
#define CMPCACHE_CHECK_VERSION_ORACLE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "coherence/bus.hh"
#include "common/types.hh"

namespace cmpcache
{

class VersionOracle
{
  public:
    /** @p l3_agent distinguishes the L3's shadow copy from L2 copies
     * (warmup taint counts L2 holders only). */
    explicit VersionOracle(AgentId l3_agent) : l3Agent_(l3_agent) {}

    /** Appended to the violation message at throw time (serial). */
    using SnapshotFn = std::function<std::string()>;
    void setSnapshotFn(SnapshotFn fn) { snapshot_ = std::move(fn); }

    // --- system hooks -------------------------------------------

    /** A store committed at @p agent (silent hit, granted upgrade, or
     * store waiters completing on a fill). Validates the agent's copy
     * is the newest version, then opens a new write epoch. */
    void onStore(AgentId agent, Addr line, Tick now);

    /** Functional warmup installed a copy (version 0). */
    void onSeedCopy(AgentId agent, Addr line, bool dirty);

    /** Warmup done: taint lines seeded writable into several L2s. */
    void sealSeeding();

    /** An *accounted* copy drop (won snarf dropped, snarf victim
     * reserved away, shared victim displaced, clean L3 victim). */
    void onDropCopy(AgentId agent, Addr line, Tick now);

    /** A copy dropped on a path that is only safe when the newest
     * version survives elsewhere (a WBHT abort, a squashed write
     * back whose cache no longer holds the line): flags when it was
     * the last copy of the newest version. */
    void onLocalSquash(AgentId agent, Addr line, Tick now);

    /** A dirty L3 victim was cast out to memory. */
    void onMemoryWrite(AgentId l3_agent, Addr line, Tick now);

    /**
     * The data of an accepted write back reached the L3 array. Between
     * the WbAcceptL3 combine and this call the newest version rides
     * the data ring: the machine's L3 cannot supply or snoop-hit it
     * yet, so a concurrent demand miss is legally served by memory
     * (an architected window, like the self-refetch race). The oracle
     * counts in-flight deliveries per line and tolerates memory
     * supplies while the count is nonzero.
     *
     * An invalidation (effective ReadExcl/Upgrade) can overtake the
     * delivery: the machine still installs the copy when the data
     * lands. The arrival therefore re-registers the L3's shadow
     * holder if it went missing mid-flight -- at the committed
     * version, the same convention the self-refetch tolerance uses
     * for lineages the architected windows make imprecise.
     */
    void onWbArrivedL3(Addr line, bool dirty, Tick now);

    /** The ring's combined response: validate the chosen supplier /
     * write-back issuer against the shadow model and apply ownership
     * transfers. Throws pending violations (serial point). */
    void onCombined(const BusRequest &req, const CombinedResult &res,
                    Tick now);

    // --- reporting ----------------------------------------------

    /** Throw the first recorded violation, if any (serial point). */
    void throwIfViolated();

    bool violated() const;
    /** The first violation's message ("" when clean). */
    std::string violationMessage() const;

    std::uint64_t deliveriesChecked() const { return checked_; }
    std::uint64_t storesStamped() const { return stamped_; }
    std::uint64_t taintedLines() const { return tainted_; }
    std::uint64_t reconciliations() const { return reconciled_; }

  private:
    struct Holder
    {
        AgentId agent = 0;
        std::uint64_t version = 0;
        /** Carries write-back responsibility for this version. */
        bool dirty = false;
    };

    struct LineShadow
    {
        std::uint64_t committed = 0;
        std::uint64_t mem = 0;
        /** Warmup seeded this line writable in several L2s. */
        bool tainted = false;
        /** An accounted loss already degraded this line: later
         * stale-looking effects of it must not flag. */
        bool lossAccounted = false;
        /** Accepted write backs whose data has not reached the L3
         * array yet (see onWbArrivedL3). */
        unsigned l3Inflight = 0;
        std::vector<Holder> holders;
    };

    LineShadow &shadow(Addr line) { return lines_[line]; }
    Holder *find(LineShadow &s, AgentId agent);
    void setHolder(LineShadow &s, AgentId agent, std::uint64_t version,
                   bool dirty);
    bool eraseHolder(LineShadow &s, AgentId agent, Holder &out);
    bool anyAt(const LineShadow &s, std::uint64_t version) const;
    bool anyDirtyAt(const LineShadow &s, std::uint64_t version) const;
    std::uint64_t maxAvailable(const LineShadow &s) const;

    /** Post-drop bookkeeping for accounted drops: roll the committed
     * version back to the newest survivor when the last newest copy
     * went away; note lost write-back responsibility. */
    void reconcileAccountedDrop(LineShadow &s, const Holder &dropped);

    /** Invalidate every holder but @p keep (effective ReadExcl /
     * Upgrade). */
    void dropOthers(LineShadow &s, AgentId keep);

    /** Register the requester's freshly delivered copy. */
    void applyFill(LineShadow &s, const BusRequest &req);

    /** Record a violation (first one wins; no throw here). */
    void raise(const LineShadow &s, Tick now, Addr line, AgentId agent,
               std::uint64_t expected, std::uint64_t observed,
               const std::string &what);

    void validateSupplier(LineShadow &s, Tick now, Addr line,
                          AgentId agent, const char *who);

    AgentId l3Agent_;
    SnapshotFn snapshot_;

    std::unordered_map<Addr, LineShadow> lines_;

    struct Violation
    {
        bool armed = false;
        std::string message;
    };
    Violation violation_;

    std::uint64_t checked_ = 0;
    std::uint64_t stamped_ = 0;
    std::uint64_t tainted_ = 0;
    std::uint64_t reconciled_ = 0;
};

} // namespace cmpcache

#endif // CMPCACHE_CHECK_VERSION_ORACLE_HH
