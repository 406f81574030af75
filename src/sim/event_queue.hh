/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * Events execute in (tick, priority, insertion-sequence) order, so two
 * runs of the same configuration and seed are bit-identical. All
 * component models in cmpcache are driven from one EventQueue; one
 * tick equals one core clock cycle (6 GHz in the paper's Table 3).
 *
 * There is one kind of event: a one-shot callback posted with
 * EventQueue::at(). It runs once and is gone; a component that acts
 * periodically posts its next callback from the current one. There is
 * no cancellation.
 *
 * The kernel is built for throughput on the simulator's actual event
 * mix, where almost every event lands within a few ticks of now:
 *
 *  - A bucketed near-future wheel (WheelSpan = 1024 ticks, power of
 *    two) makes posting and firing O(1) for events inside the window;
 *    a binary far-heap absorbs the rare long-delay events and feeds
 *    them into the wheel as time advances.
 *  - Callbacks live inline in pooled event objects recycled through
 *    an intrusive free list, so steady-state runs post events without
 *    touching the allocator.
 *
 * Lifetime rule: an object must outlive every run of a queue that
 * holds its callbacks. Callbacks still pending when the queue is
 * destroyed are destroyed unrun.
 *
 * See docs/kernel.md for the ordering contract and the design
 * rationale; src/sim/reference_event_queue.hh keeps a plain binary
 * heap kernel as a differential-testing oracle and benchmark baseline.
 */

#ifndef CMPCACHE_SIM_EVENT_QUEUE_HH
#define CMPCACHE_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/inplace_function.hh"
#include "common/types.hh"

namespace cmpcache
{

/**
 * The event queue. Not thread-safe by design: cmpcache simulations are
 * single-threaded and deterministic (parallel sweeps give every job
 * its own queue).
 */
class EventQueue
{
  public:
    /** Lower value runs first among events at the same tick. */
    using Priority = std::int8_t;

    static constexpr Priority DefaultPri = 0;
    /** Stat/bookkeeping events run last in a cycle. */
    static constexpr Priority StatPri = 100;

    /** Near-future window covered by the wheel, in ticks. */
    static constexpr Tick WheelSpan = 1024;

    /**
     * Inline capture budget for callbacks. The largest hot captures
     * are [this, BusRequest, Tick] / [agent, BusRequest,
     * CombinedResult] at ~40 bytes; anything bigger fails to compile
     * instead of silently heap-allocating.
     */
    static constexpr std::size_t FnCapacity = 48;

    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Tick curTick() const { return curTick_; }

    /**
     * Run @p fn once at absolute tick @p when (>= curTick()), after
     * every earlier-posted event of the same tick and priority.
     * @p what names the event in panic messages and must be a string
     * literal. The callable is stored inline (FnCapacity bytes) -- no
     * allocation per event.
     */
    template <typename Fn>
    void
    at(Tick when, Fn &&fn, const char *what = "one-shot",
       Priority prio = DefaultPri)
    {
        post(when, what, prio)->fn.emplace(std::forward<Fn>(fn));
    }

    bool empty() const { return numPending() == 0; }
    std::size_t numPending() const { return wheelCount_ + far_.size(); }

    /**
     * Run until the queue drains or the next event lies beyond
     * @p max_tick (time then advances to exactly @p max_tick).
     * @return the final current tick.
     */
    Tick run(Tick max_tick = MaxTick);

    /** Total events executed since construction. */
    std::uint64_t numExecuted() const { return numExecuted_; }

    /** Pooled event objects ever allocated (pool growth metric). */
    std::size_t poolSize() const { return poolChunks_.size() * PoolChunk; }

  private:
    /** A posted callback; free ones are chained through nextFree. */
    struct PooledEvent
    {
        InplaceFunction<void(), FnCapacity> fn;
        PooledEvent *nextFree = nullptr;
    };

    static constexpr Tick WheelMask = WheelSpan - 1;
    static constexpr unsigned BitmapWords =
        static_cast<unsigned>(WheelSpan / 64);
    static constexpr std::size_t PoolChunk = 64;

    /**
     * Same-tick ordering key: sign-flipped priority in the top byte,
     * post sequence in the low 56 bits. A single unsigned compare
     * orders entries by (priority, sequence).
     */
    static std::uint64_t
    makeKey(Priority prio, std::uint64_t seq)
    {
        const auto p = static_cast<std::uint64_t>(
            static_cast<std::uint8_t>(prio) ^ 0x80u);
        return (p << 56) | (seq & ((std::uint64_t{1} << 56) - 1));
    }

    /** Entry in a wheel bucket; the bucket's tick is implicit. */
    struct WheelEntry
    {
        std::uint64_t key;
        PooledEvent *ev;
    };

    /**
     * One tick's worth of events, consumed front-to-back through a
     * cursor. Appends are O(1) and almost always arrive in key order;
     * the exception is a DefaultPri event posted behind a pending
     * StatPri one, which marks the bucket dirty so its pending range
     * [head, end) is sorted before the next pop.
     */
    struct Bucket
    {
        std::vector<WheelEntry> entries;
        std::size_t head = 0;
        bool dirty = false;
    };

    struct FarEntry
    {
        Tick when;
        std::uint64_t key;
        PooledEvent *ev;
    };

    /** First tick no longer coverable by the wheel from @p now. */
    static Tick
    horizonOf(Tick now)
    {
        return now >= MaxTick - WheelSpan ? MaxTick : now + WheelSpan;
    }

    void setBit(unsigned b) { bits_[b >> 6] |= std::uint64_t{1} << (b & 63); }
    void clearBit(unsigned b) { bits_[b >> 6] &= ~(std::uint64_t{1} << (b & 63)); }

    /**
     * Take a pooled event, give it the next sequence number and queue
     * it at @p when; the caller fills in its callback.
     */
    PooledEvent *post(Tick when, const char *what, Priority prio);

    /** Restore key order in a dirty bucket's pending range. */
    void sortBucket(Bucket &b);

    /**
     * Distance (in ticks) from @p start_tick to the nearest occupied
     * bucket, or -1 if the wheel is empty.
     */
    int nextOccupied(Tick start_tick) const;

    void pushWheel(Tick when, std::uint64_t key, PooledEvent *ev);
    void pushFar(Tick when, std::uint64_t key, PooledEvent *ev);

    /** Advance time to @p t, migrating far events into the wheel. */
    void advanceTo(Tick t);

    /**
     * Advance curTick_ to the tick of the next event and return true,
     * or return false when the queue is drained (time untouched) or
     * the next event lies beyond @p max_tick (time advanced to
     * @p max_tick).
     */
    bool advanceToNext(Tick max_tick);

    std::array<Bucket, WheelSpan> wheel_;
    std::array<std::uint64_t, BitmapWords> bits_{};
    /** Entries currently in the wheel. */
    std::size_t wheelCount_ = 0;
    /** Min-heap on (when, key) of events at or beyond the horizon. */
    std::vector<FarEntry> far_;

    Tick curTick_ = 0;
    std::uint64_t nextSequence_ = 0;
    std::uint64_t numExecuted_ = 0;

    PooledEvent *freeHead_ = nullptr;
    /** Owns every pooled event; pending callbacks die with it. */
    std::vector<std::unique_ptr<PooledEvent[]>> poolChunks_;
};

} // namespace cmpcache

#endif // CMPCACHE_SIM_EVENT_QUEUE_HH
