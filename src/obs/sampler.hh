/**
 * @file
 * Periodic statistic sampler (docs/observability.md).
 *
 * The Sampler posts an event-kernel callback that fires every
 * `interval` ticks at EventQueue::StatPri -- after all same-cycle
 * model activity -- and appends the instantaneous value of every watched
 * statistic to an in-memory SampleSeries. Watching resolves each
 * dotted path through Group::find() exactly once and caches the
 * resolved Stat pointer, so a sample is O(#channels) regardless of
 * the size of the stats tree.
 *
 * The sampler terminates with the simulation: after recording a
 * sample it posts the next one only while other events are pending,
 * so it never keeps the queue alive on its own and EventQueue::run()
 * still drains. It must outlive every run of the queue it samples.
 */

#ifndef CMPCACHE_OBS_SAMPLER_HH
#define CMPCACHE_OBS_SAMPLER_HH

#include <string>
#include <vector>

#include "obs/time_series.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace cmpcache
{

class Sampler
{
  public:
    /**
     * @param eq       queue driving the simulation being observed
     * @param root     group subtree the watch paths are relative to
     * @param interval sampling period in ticks (> 0)
     */
    Sampler(EventQueue &eq, const stats::Group &root, Tick interval);

    /** Its posted callbacks hold its address. */
    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /**
     * Watch one stat by dotted path relative to the root group
     * ("ring.pending_now"). The path is resolved once, here; the
     * cached pointer makes subsequent samples O(1) per channel.
     * @return false if the path does not name a stat (or is already
     *         watched)
     */
    bool watch(const std::string &path);

    /** Post the first sample one interval from now. */
    void start();

    std::size_t numChannels() const { return series_.names.size(); }
    bool started() const { return started_; }

    /** The captured series (grows until the simulation drains). */
    const SampleSeries &series() const { return series_; }

  private:
    /** Post the next sample one interval from now. */
    void post();
    void fire();

    EventQueue &eq_;
    const stats::Group &root_;
    Tick interval_;
    std::vector<const stats::Stat *> stats_;
    SampleSeries series_;
    bool started_ = false;
};

} // namespace cmpcache

#endif // CMPCACHE_OBS_SAMPLER_HH
