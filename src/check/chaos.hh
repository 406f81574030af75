/**
 * @file
 * Seeded chaos-fuzzing driver for the coherence protocol
 * (`cmpcache chaos`; docs/robustness.md).
 *
 * Each sample draws an adversarial configuration from a deterministic
 * RNG stream -- a sharing-heavy stress workload (producer_consumer,
 * migratory, false_sharing, pingpong), a machine topology and a
 * benign fault-injection plan (retry storms, delays, snarf
 * suppression) -- and runs it with the full
 * conformance stack forced on: the version oracle validates every
 * data delivery and a periodic online sweep re-checks the structural
 * coherence invariants mid-run.
 *
 * The first failing sample is minimized into a self-contained
 * reproducer: the interleaved trace is delta-debugged (ddmin) down to
 * the fewest records that still fail, the fault plan is pruned and
 * its windows tightened, and the result is written as a trace file +
 * config file + one-line rerun command. A failure found on a laptop
 * at 2 a.m. becomes a deterministic regression test by breakfast.
 */

#ifndef CMPCACHE_CHECK_CHAOS_HH
#define CMPCACHE_CHECK_CHAOS_HH

#include <cstdint>
#include <iosfwd>
#include <string>

namespace cmpcache
{

struct ChaosOptions
{
    /** Master seed; every sample derives its own RNG stream. */
    std::uint64_t seed = 1;
    /** Samples to draw (sampling stops at the first failure). */
    unsigned samples = 16;
    /** References per hardware thread per sample. */
    std::uint64_t recordsPerThread = 1200;
    /** Wall-clock budget in seconds over sampling AND minimization;
     * 0 = unlimited. Minimization returns its best-so-far when the
     * box closes. */
    double timeBoxSecs = 0.0;
    /** Randomize benign fault windows into the samples. */
    bool withFaults = true;
    /** Extra fault-plan spec appended to every sample verbatim. The
     * forced-failure smoke test injects `wb_blind_spot:...` here. */
    std::string extraFaultPlan;
    /** Minimize the first failure into a reproducer bundle. */
    bool minimize = true;
    /** ddmin stops early once the trace is this small. */
    std::size_t minimizeTargetRecords = 200;
    /** Cap on minimization re-runs (each is a full simulation). */
    unsigned minimizeMaxRuns = 400;
    /** Directory for the reproducer bundle (created if missing). */
    std::string reproDir = "chaos-repro";
};

/** What a chaos run found; returned by runChaos for the CLI/tests. */
struct ChaosReport
{
    unsigned samplesRun = 0;
    bool failed = false;

    /** Filled when failed: the failing sample. */
    std::string failureKind;    ///< SimErrorKind name
    std::string failureMessage; ///< the structured error text
    std::string sampleSummary;  ///< workload + machine + fault plan
    std::uint64_t failingSeed = 0;

    /** Filled when a reproducer was minimized and written. */
    bool reproWritten = false;
    std::size_t originalRecords = 0;
    std::size_t minimizedRecords = 0;
    std::string minimizedFaultPlan;
    std::string reproTracePath;
    std::string reproConfigPath;
    /** One line: re-run the exact failure from a shell. */
    std::string rerunCommand;
};

/**
 * Run the chaos sweep. Progress and findings go to @p log (one line
 * per sample/minimization round); the returned report carries
 * everything the caller needs for exit codes and assertions.
 */
ChaosReport runChaos(const ChaosOptions &opts, std::ostream &log);

} // namespace cmpcache

#endif // CMPCACHE_CHECK_CHAOS_HH
