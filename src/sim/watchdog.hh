/**
 * @file
 * Forward-progress watchdog.
 *
 * A protocol bug that livelocks -- a transaction retrying forever --
 * or deadlocks used to hang the simulator with no diagnosis, because
 * the coherence invariant checker only runs after quiesce. The
 * watchdog is an event-kernel-driven periodic check that trips on:
 *
 *  - livelock: the machine keeps executing events but no architectural
 *    progress happens (no new CPU issues, no write-back completions)
 *    for `stallChecks` consecutive checks, or any single transaction
 *    exceeds the `maxTxnAge` age bound;
 *  - deadlock: the event queue drained while CPUs still hold
 *    unfinished traces (non-empty L2 wbq / L3 incoming / ring queues
 *    with nothing left to run);
 *  - wall-clock budget: the run exceeded `wallSecs` real seconds
 *    (inherently non-deterministic; off by default).
 *
 * On a trip the watchdog assembles a diagnostic snapshot -- the stuck
 * transactions (line address, age, retry counts), every queue depth,
 * and the retry-window state -- invokes an optional hook (the
 * Simulation facade uses it to flush a Perfetto trace), and aborts the
 * run with a structured SimError instead of hanging. Sweep workers
 * catch it, so one wedged cell cannot stall a grid.
 *
 * Like the obs sampler, the watchdog never keeps the event queue
 * alive: it posts its next check only while other work is pending,
 * and with `every == 0` (the default) it is never constructed at all,
 * so watchdog-free runs are byte-identical. It must outlive every run
 * of the system's queue.
 */

#ifndef CMPCACHE_SIM_WATCHDOG_HH
#define CMPCACHE_SIM_WATCHDOG_HH

#include <chrono>
#include <functional>
#include <string>

#include "common/error.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace cmpcache
{

class CmpSystem;

/** The `watchdog.*` slice of SystemConfig. */
struct WatchdogConfig
{
    /** Check period in cycles; 0 disables the watchdog entirely. */
    Tick every = 0;
    /** Consecutive no-progress checks before a livelock trip. */
    unsigned stallChecks = 3;
    /** Oldest allowed in-flight transaction age in cycles (0 = no
     * age bound). */
    Tick maxTxnAge = 0;
    /** Wall-clock budget in seconds (0 = unlimited). Trips are
     * non-deterministic by nature; keep off for reproducible runs. */
    std::uint64_t wallSecs = 0;

    bool enabled() const { return every > 0; }
};

class Watchdog
{
  public:
    Watchdog(CmpSystem &sys, const WatchdogConfig &cfg);

    /** Its posted callbacks hold its address. */
    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Post the first check (call before CmpSystem::run). */
    void start();

    /**
     * Invoked with the structured error right before the watchdog
     * throws, while the system is still inspectable (flush traces,
     * dump state).
     */
    using TripHook = std::function<void(const SimError &)>;
    void setTripHook(TripHook hook) { onTrip_ = std::move(hook); }

    std::uint64_t checksRun() const { return checks_; }

  private:
    /** Post the next check one period from now. */
    void post();
    void check();
    /** Build the diagnostic, run the hook, throw SimException. */
    [[noreturn]] void trip(SimErrorKind kind, const std::string &why);
    /** Multi-line state dump: stuck transactions, queue depths,
     * retry-window state. */
    std::string snapshot();
    /** Monotone counter of architectural progress. */
    std::uint64_t progressCount() const;

    CmpSystem &sys_;
    WatchdogConfig cfg_;
    TripHook onTrip_;

    std::uint64_t checks_ = 0;
    std::uint64_t lastProgress_ = 0;
    std::uint64_t lastExecuted_ = 0;
    unsigned stalled_ = 0;
    std::chrono::steady_clock::time_point wallStart_;
};

} // namespace cmpcache

#endif // CMPCACHE_SIM_WATCHDOG_HH
