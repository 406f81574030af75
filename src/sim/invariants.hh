/**
 * @file
 * Global coherence-state invariant checking over a finished (or
 * quiesced) CmpSystem. The rules are the protocol's correctness
 * conditions across every L2 copy of a line:
 *
 *  - at most one dirty owner (M or T);
 *  - a Modified copy is the only copy;
 *  - an Exclusive copy is the only copy;
 *  - at most one designated clean intervention source (SL);
 *  - (opt-in, advisory) no valid L3 copy alongside an owned (M/E/T)
 *    L2 copy: stores invalidate the L3 at combine, so an owned line
 *    normally must not still look valid off chip;
 *  - (quiesced systems only) no dangling snarf reservations: with the
 *    machine drained every L2's pending-snarf table must be empty.
 *
 * Lines functional warmup seeded into several L2s at once start the
 * run in states no running machine produces; the checker skips them
 * (reported via linesSkipped), mirroring the conformance oracle's
 * warmup taint.
 *
 * Used by the whole-system property tests, the online invariant
 * sweeps (check.invariants_every, which the chaos harness turns on),
 * and, optionally, the sweep runner after every grid cell.
 */

#ifndef CMPCACHE_SIM_INVARIANTS_HH
#define CMPCACHE_SIM_INVARIANTS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cmpcache
{

class CmpSystem;

struct CoherenceCheck
{
    std::uint64_t linesChecked = 0;
    /** Lines exempted because functional warmup seeded them into
     * several L2s at once (CmpSystem::isWarmupApproximate). */
    std::uint64_t linesSkipped = 0;
    std::uint64_t violations = 0;
    /** One diagnostic per violation, capped (see checkCoherence). */
    std::vector<std::string> messages;

    bool clean() const { return violations == 0; }

    /** All diagnostics joined with newlines (test failure output). */
    std::string report() const;
};

struct CoherenceCheckOptions
{
    /** Cap on retained diagnostics (counting is exact). */
    std::size_t maxMessages = 16;
    /**
     * The machine is drained: no in-flight transactions remain, so
     * transient bookkeeping (snarf reservations) must have resolved.
     * Leave false for online mid-run sweeps.
     */
    bool quiesced = false;
    /**
     * Check the L3-staleness rule. Advisory and off by default: two
     * architected situations legitimately leave a valid L3 copy
     * behind an owned L2 line -- functional warmup seeds the L3
     * without cross-level invalidation, and an L2 that demand-misses
     * a line parked in its own write-back queue refetches it as
     * Exclusive while the queued dirty victim later installs in the
     * L3. The version oracle tracks that lineage exactly; this
     * structural rule is for forged-state tests and hand-built
     * configurations where neither situation can occur.
     */
    bool checkL3 = false;
};

/**
 * Inspect every valid L2 tag in @p sys and verify the invariants
 * above for each line address.
 */
CoherenceCheck checkCoherence(CmpSystem &sys,
                              const CoherenceCheckOptions &opts);

/**
 * The check of a drained machine: checkCoherence with the quiesced
 * rules on and default options otherwise. `sweep --check-coherence`
 * runs it on every finished cell, and Simulation::run on the drained
 * machine when check.invariants_every > 0.
 */
CoherenceCheck checkDrainedCoherence(CmpSystem &sys);

} // namespace cmpcache

#endif // CMPCACHE_SIM_INVARIANTS_HH
