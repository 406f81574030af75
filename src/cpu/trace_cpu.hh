/**
 * @file
 * Trace-driven hardware-thread model.
 *
 * One TraceCpu replays the L2-traffic stream of one hardware thread
 * (the paper's traces are per-thread L2 traffic captured on real
 * hardware). The single knob the paper sweeps -- "maximum outstanding
 * loads per thread" (its memory-pressure axis, 1..6) -- is the
 * outstanding-miss limit here: the thread keeps issuing references
 * (spaced by each record's compute gap) until it would exceed the
 * limit, then stalls until a miss completes.
 */

#ifndef CMPCACHE_CPU_TRACE_CPU_HH
#define CMPCACHE_CPU_TRACE_CPU_HH

#include <functional>
#include <memory>

#include "l2/l2_cache.hh"
#include "sim/sim_object.hh"
#include "trace/trace.hh"

namespace cmpcache
{

struct CpuParams
{
    /** Max outstanding read+write misses per thread (paper: 1..6). */
    unsigned maxOutstanding = 6;
    /** Back-off when the L2 rejects an access (resources full). */
    Tick blockedRetry = 8;
};

class TraceCpu : public SimObject
{
  public:
    TraceCpu(stats::Group *parent, EventQueue &eq,
             const std::string &name, ThreadId tid, const CpuParams &p,
             L2Cache &l2, std::unique_ptr<TraceSource> source);

    /** Begin replay (schedules the first reference). */
    void startup() override;

    /** Routed from the L2: one of this thread's misses completed. */
    void onMissComplete();

    bool done() const { return done_; }
    /** Tick at which the last reference (and miss) completed. */
    Tick finishTick() const { return finishTick_; }

    std::uint64_t issued() const { return issued_.value(); }

  private:
    void scheduleAttempt(Tick when);
    void attempt();
    void loadNextRecord();
    void checkDone();

    ThreadId tid_;
    CpuParams params_;
    L2Cache &l2_;
    std::unique_ptr<TraceSource> source_;

    TraceRecord cur_;
    bool haveRecord_ = false;
    bool sourceExhausted_ = false;
    unsigned outstanding_ = 0;
    bool waitingForSlot_ = false;
    bool done_ = false;
    Tick finishTick_ = 0;

    stats::Scalar issued_;
    stats::Scalar hitsSeen_;
    stats::Scalar missesSeen_;
    stats::Scalar blockedSeen_;
    stats::Scalar slotStalls_;
};

} // namespace cmpcache

#endif // CMPCACHE_CPU_TRACE_CPU_HH
