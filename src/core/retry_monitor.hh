/**
 * @file
 * The retry-rate "on/off switch" for the WBHT (paper section 2.2).
 *
 * With low memory pressure, filtering clean write backs only hurts
 * (no contention to relieve, and mispredictions cost a full memory
 * access). The paper therefore counts ring retry transactions in a
 * fixed window and disables WBHT *decisions* (the table stays
 * up-to-date) whenever the count falls below a threshold. "A common
 * threshold of two thousand retries every one million processor
 * cycles works well."
 */

#ifndef CMPCACHE_CORE_RETRY_MONITOR_HH
#define CMPCACHE_CORE_RETRY_MONITOR_HH

#include <functional>

#include "common/types.hh"
#include "stats/stats.hh"

namespace cmpcache
{

class RetryMonitor : public stats::Group
{
  public:
    struct Params
    {
        /** Window length in core cycles (paper: 1,000,000). */
        Tick windowCycles = 1000000;
        /** Retries per window required to enable the WBHT
         * (paper: 2,000). */
        std::uint64_t threshold = 2000;
    };

    RetryMonitor(stats::Group *parent, const Params &p);

    /** A retry combined-response occurred at @p now. */
    void recordRetry(Tick now);

    /** Is the WBHT currently allowed to filter write backs? */
    bool active(Tick now);

    /**
     * Give the monitor a way to read the current tick so its gauge
     * stats (wbht_active_now & friends) can roll windows before
     * reporting. Without one the gauges report last-known state.
     * Rolling is idempotent in the observed values, so a gauge read
     * never changes what the simulation itself would compute.
     */
    void setTimeSource(std::function<Tick()> now)
    {
        timeSource_ = std::move(now);
    }

    const Params &params() const { return params_; }

  private:
    /** Close any windows that ended before @p now. */
    void rollWindows(Tick now);

    /** Roll up to the time source's now (if any) and return @p v. */
    double gauge(const std::function<double()> &v);

    Params params_;
    Tick windowStart_ = 0;
    std::uint64_t windowCount_ = 0;
    /** Retry count of the most recently closed window. */
    std::uint64_t lastWindowCount_ = 0;
    /** WBHT gate; closed until the first full window completes. */
    bool active_ = false;
    std::function<Tick()> timeSource_;

    stats::Scalar retriesSeen_;
    stats::Scalar windowsOn_;
    stats::Scalar windowsOff_;
    stats::Scalar gateTransitions_;
    stats::Formula activeNow_;
    stats::Formula windowRetriesNow_;
    stats::Formula lastWindowRetries_;
    stats::Formula windowsElapsed_;
};

} // namespace cmpcache

#endif // CMPCACHE_CORE_RETRY_MONITOR_HH
