/**
 * @file
 * Reference discrete-event kernel: a std::priority_queue of (tick,
 * priority, sequence) entries, each pointing at a heap-allocated
 * RefEvent that is deleted once it has run -- the shape of the kernel
 * the bucketed wheel replaced, kept in its own namespace.
 *
 * This is NOT used by the simulator. It exists so that
 *  - the randomized differential test
 *    (tests/sim/test_event_queue_differential.cc) can pit the
 *    production bucketed kernel against an independent, obviously
 *    correct ordering oracle, and
 *  - bench/kernel_throughput.cpp can measure the production kernel
 *    against it (the "reference-heap" rows of
 *    bench/BENCH_kernel.json): one allocation per posted event instead
 *    of EventQueue's pool, one heap push and pop instead of a wheel
 *    bucket.
 *
 * Its at() and run() mirror EventQueue's, and so does the ordering
 * contract: events execute in (tick, priority, insertion-sequence)
 * order. See docs/kernel.md.
 */

#ifndef CMPCACHE_SIM_REFERENCE_EVENT_QUEUE_HH
#define CMPCACHE_SIM_REFERENCE_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace cmpcache
{
namespace ref
{

/** One posted callback; run once, then deleted. */
struct RefEvent
{
    std::function<void()> fn;
};

class RefEventQueue
{
  public:
    using Priority = std::int8_t;

    static constexpr Priority DefaultPri = 0;
    static constexpr Priority StatPri = 100;

    RefEventQueue() = default;

    RefEventQueue(const RefEventQueue &) = delete;
    RefEventQueue &operator=(const RefEventQueue &) = delete;

    ~RefEventQueue()
    {
        for (; !heap_.empty(); heap_.pop())
            delete heap_.top().event;
    }

    Tick curTick() const { return curTick_; }

    template <typename Fn>
    void
    at(Tick when, Fn &&fn, const char *what = "one-shot",
       Priority prio = DefaultPri)
    {
        cmp_assert(when >= curTick_, "event '", what,
                   "' scheduled in the past (", when, " < ", curTick_,
                   ")");
        heap_.push(Entry{when, prio, nextSequence_++,
                         new RefEvent{std::forward<Fn>(fn)}});
    }

    Tick
    run(Tick max_tick = MaxTick)
    {
        while (!heap_.empty()) {
            const Entry top = heap_.top();
            if (top.when > max_tick) {
                curTick_ = max_tick;
                break;
            }
            heap_.pop();
            cmp_assert(top.when >= curTick_, "time went backwards");
            curTick_ = top.when;
            ++numExecuted_;
            const std::unique_ptr<RefEvent> ev(top.event);
            ev->fn();
        }
        return curTick_;
    }

    std::uint64_t numExecuted() const { return numExecuted_; }

  private:
    struct Entry
    {
        Tick when;
        Priority priority;
        std::uint64_t sequence;
        RefEvent *event;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (priority != o.priority)
                return priority > o.priority;
            return sequence > o.sequence;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        heap_;
    Tick curTick_ = 0;
    std::uint64_t nextSequence_ = 0;
    std::uint64_t numExecuted_ = 0;
};

} // namespace ref
} // namespace cmpcache

#endif // CMPCACHE_SIM_REFERENCE_EVENT_QUEUE_HH
