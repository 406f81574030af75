#include "core/retry_monitor.hh"

namespace cmpcache
{

RetryMonitor::RetryMonitor(stats::Group *parent, const Params &p)
    : stats::Group(parent, "retry_monitor"),
      params_(p),
      retriesSeen_(this, "retries_seen", "retry responses observed"),
      windowsOn_(this, "windows_on",
                 "windows that enabled the WBHT"),
      windowsOff_(this, "windows_off",
                  "windows that disabled the WBHT"),
      gateTransitions_(this, "gate_transitions",
                       "WBHT enable-bit flips at window boundaries"),
      activeNow_(this, "wbht_active_now",
                 "is the WBHT gate currently open (0/1)",
                 [this] {
                     return gauge(
                         [this] { return active_ ? 1.0 : 0.0; });
                 }),
      windowRetriesNow_(this, "window_retries_now",
                        "retries accumulated in the open window",
                        [this] {
                            return gauge([this] {
                                return static_cast<double>(
                                    windowCount_);
                            });
                        }),
      lastWindowRetries_(this, "last_window_retries",
                         "retry count of the last closed window",
                         [this] {
                             return gauge([this] {
                                 return static_cast<double>(
                                     lastWindowCount_);
                             });
                         }),
      windowsElapsed_(this, "windows_elapsed",
                      "windows closed so far",
                      [this] {
                          return gauge([this] {
                              return static_cast<double>(
                                  windowsOn_.value()
                                  + windowsOff_.value());
                          });
                      })
{
}

double
RetryMonitor::gauge(const std::function<double()> &v)
{
    if (timeSource_)
        rollWindows(timeSource_());
    return v();
}

void
RetryMonitor::rollWindows(Tick now)
{
    const Tick window = params_.windowCycles;
    if (now < windowStart_ + window)
        return;

    // Close the first elapsed window with the accumulated count.
    bool next = windowCount_ >= params_.threshold;
    if (next != active_)
        ++gateTransitions_;
    active_ = next;
    if (active_)
        ++windowsOn_;
    else
        ++windowsOff_;
    lastWindowCount_ = windowCount_;
    windowStart_ += window;
    windowCount_ = 0;

    // Any further elapsed windows saw zero retries; account for all
    // of them at once instead of iterating across a long idle gap.
    if (now >= windowStart_ + window) {
        const std::uint64_t gap = (now - windowStart_) / window;
        next = params_.threshold == 0;
        if (next != active_)
            ++gateTransitions_;
        active_ = next;
        if (active_)
            windowsOn_ += gap;
        else
            windowsOff_ += gap;
        lastWindowCount_ = 0;
        windowStart_ += gap * window;
    }
}

void
RetryMonitor::recordRetry(Tick now)
{
    rollWindows(now);
    ++windowCount_;
    ++retriesSeen_;
}

bool
RetryMonitor::active(Tick now)
{
    rollWindows(now);
    return active_;
}

} // namespace cmpcache
