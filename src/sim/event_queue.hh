/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * Events execute in (tick, priority, insertion-sequence) order, so two
 * runs of the same configuration and seed are bit-identical. All
 * component models in cmpcache are driven from one EventQueue; one
 * tick equals one core clock cycle (6 GHz in the paper's Table 3).
 *
 * The kernel is built for throughput on the simulator's actual event
 * mix, where almost every event lands within a few ticks of now:
 *
 *  - A bucketed near-future wheel (WheelSpan = 1024 ticks, power of
 *    two) makes schedule and fire O(1) for events inside the window;
 *    a binary far-heap absorbs the rare long-delay events and feeds
 *    them into the wheel as time advances.
 *  - Cancellation is zero-hash: every queue entry snapshots the
 *    event's schedule sequence number, which doubles as a generation
 *    counter. deschedule() just bumps the event's generation (by
 *    clearing scheduled_ and letting the next schedule() assign a
 *    fresh sequence); stale entries are recognized on pop by a single
 *    integer compare. No unordered_set, no hashing anywhere.
 *  - An intrusive free-list pool of one-shot callback events backs
 *    EventQueue::at(), eliminating the per-transaction new/delete
 *    churn of the L2/L3/ring models.
 *
 * See docs/kernel.md for the ordering contract and the design
 * rationale; src/sim/reference_event_queue.hh preserves the previous
 * heap+hash kernel as a differential-testing oracle and benchmark
 * baseline.
 */

#ifndef CMPCACHE_SIM_EVENT_QUEUE_HH
#define CMPCACHE_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/inplace_function.hh"
#include "common/types.hh"

namespace cmpcache
{

class Event;
class EventQueue;

/**
 * A schedulable unit of work. Derive and implement process(), or use
 * EventFunctionWrapper for lambda-based events.
 *
 * An Event may be scheduled on at most one queue at a time; it may be
 * rescheduled freely once it has fired or been descheduled.
 */
class Event
{
  public:
    /** Lower value runs first among events at the same tick. */
    using Priority = std::int8_t;

    static constexpr Priority DefaultPri = 0;
    /** Snoop-response combining runs after same-cycle requests. */
    static constexpr Priority CombinePri = 10;
    /** Stat/bookkeeping events run last in a cycle. */
    static constexpr Priority StatPri = 100;

    explicit Event(Priority prio = DefaultPri) : priority_(prio) {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Callback executed when the event fires. */
    virtual void process() = 0;

    /** Debug name (used in panic messages). */
    virtual std::string name() const { return "anon-event"; }

    bool scheduled() const { return scheduled_; }
    Tick when() const { return when_; }
    Priority priority() const { return priority_; }

  private:
    friend class EventQueue;

    Tick when_ = 0;
    /**
     * Sequence number of the current (or most recent) schedule. Each
     * schedule() assigns a fresh, globally unique sequence, so the
     * pair (scheduled_, sequence_) acts as the event's generation:
     * a queue entry is live iff the event is still scheduled under
     * the very sequence the entry was created with.
     */
    std::uint64_t sequence_ = 0;
    /** Queue entries (live or stale) still referencing this event. */
    std::uint32_t liveEntries_ = 0;
    /** Last queue this event was scheduled on (for safe teardown). */
    EventQueue *queue_ = nullptr;
    Priority priority_;
    bool scheduled_ = false;
};

/** Event that invokes a bound callable. */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> fn, std::string name,
                         Priority prio = DefaultPri)
        : Event(prio), fn_(std::move(fn)), name_(std::move(name))
    {
    }

    void process() override { fn_(); }
    std::string name() const override { return name_; }

  private:
    std::function<void()> fn_;
    std::string name_;
};

/**
 * Pooled one-shot callback event. Users never see these directly:
 * EventQueue::at() acquires one from the queue's free list, and
 * process() returns it before running the callback, so a steady
 * stream of fire-and-forget transactions recycles a handful of
 * objects instead of hitting the allocator per event.
 */
class PooledEvent final : public Event
{
  public:
    /**
     * Inline capture budget for one-shot callbacks. The largest hot
     * captures are [this, BusRequest, Tick] / [agent, BusRequest,
     * CombinedResult] at ~40 bytes; anything bigger fails to compile
     * instead of silently heap-allocating.
     */
    static constexpr std::size_t FnCapacity = 48;

    PooledEvent() = default;

    void process() override;
    std::string
    name() const override
    {
        return what_ ? what_ : "pooled";
    }

  private:
    friend class EventQueue;

    InplaceFunction<void(), FnCapacity> fn_;
    PooledEvent *nextFree_ = nullptr;
    EventQueue *home_ = nullptr;
    /** Static debug label supplied by the at() caller. */
    const char *what_ = nullptr;
};

/**
 * The event queue. Not thread-safe by design: cmpcache simulations are
 * single-threaded and deterministic (parallel sweeps give every job
 * its own queue).
 */
class EventQueue
{
  public:
    /** Near-future window covered by the wheel, in ticks. */
    static constexpr Tick WheelSpan = 1024;

    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Tick curTick() const { return curTick_; }

    /** Schedule @p ev at absolute tick @p when (>= curTick()). */
    void schedule(Event *ev, Tick when);

    /** Remove a scheduled event without executing it. */
    void deschedule(Event *ev);

    /** Deschedule (if needed) and schedule at @p when. */
    void reschedule(Event *ev, Tick when);

    /**
     * Run @p fn once at absolute tick @p when (>= curTick()) on a
     * pooled one-shot event. @p what must point to storage outliving
     * the event (string literals). The callable is stored inline
     * (PooledEvent::FnCapacity bytes) -- no allocation per event.
     */
    template <typename Fn>
    void
    at(Tick when, Fn &&fn, const char *what = "one-shot")
    {
        PooledEvent *ev = acquirePooled();
        ev->fn_ = std::forward<Fn>(fn);
        ev->home_ = this;
        ev->what_ = what;
        schedule(ev, when);
    }

    bool empty() const { return liveEvents_ == 0; }
    std::size_t numPending() const { return liveEvents_; }

    /** Execute the single next event. Queue must not be empty. */
    void step();

    /**
     * Run until the queue drains or the next event lies beyond
     * @p max_tick.
     * @return the final current tick.
     */
    Tick run(Tick max_tick = MaxTick);

    /** Total events executed since construction. */
    std::uint64_t numExecuted() const { return numExecuted_; }

    /** One-shot pool objects ever allocated (pool growth metric). */
    std::size_t poolSize() const { return poolAllocated_; }

  private:
    friend class Event;
    friend class PooledEvent;

    static constexpr Tick WheelMask = WheelSpan - 1;
    static constexpr unsigned BitmapWords =
        static_cast<unsigned>(WheelSpan / 64);
    static constexpr std::size_t PoolChunk = 64;

    /** Low 56 bits of the packed key hold the sequence number. */
    static constexpr std::uint64_t SeqMask =
        (std::uint64_t{1} << 56) - 1;

    /**
     * Same-tick ordering key: sign-flipped priority in the top byte,
     * schedule sequence in the low 56 bits. A single unsigned compare
     * orders entries by (priority, sequence).
     */
    static std::uint64_t
    makeKey(Event::Priority prio, std::uint64_t seq)
    {
        const auto p = static_cast<std::uint64_t>(
            static_cast<std::uint8_t>(prio) ^ 0x80u);
        return (p << 56) | (seq & SeqMask);
    }

    /** Entry in a wheel bucket; the bucket's tick is implicit. */
    struct WheelEntry
    {
        std::uint64_t key;
        Event *ev;
    };

    /**
     * One tick's worth of events, consumed front-to-back through a
     * cursor. Appends are always O(1); keys arrive almost always in
     * increasing order (same priority, rising sequence), and the rare
     * out-of-order append (an urgent-priority latecomer) just marks
     * the bucket dirty. The pending range [head, end) is sorted
     * lazily, when the bucket is drained -- a stable O(n) counting
     * sort on the priority byte (see sortBucket) -- so a burst of
     * mixed-priority same-tick schedules costs one linear pass
     * instead of n vector inserts.
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
        Event *ev;
    };

    /** Is this entry still the event's current schedule? */
    static bool
    isLive(const Event *ev, std::uint64_t key)
    {
        return ev && ev->scheduled_
               && ((ev->sequence_ ^ key) & SeqMask) == 0;
    }

    /** First tick no longer coverable by the wheel from @p now. */
    static Tick
    horizonOf(Tick now)
    {
        return now >= MaxTick - WheelSpan ? MaxTick : now + WheelSpan;
    }

    void setBit(unsigned b) { bits_[b >> 6] |= std::uint64_t{1} << (b & 63); }
    void clearBit(unsigned b) { bits_[b >> 6] &= ~(std::uint64_t{1} << (b & 63)); }

    /** Sort the pending range of a dirty bucket (lazy, on drain). */
    void sortBucket(Bucket &b);

    /**
     * Distance (in ticks) from @p start_tick to the nearest occupied
     * bucket, or -1 if the wheel is empty.
     */
    int nextOccupied(Tick start_tick) const;

    void pushWheel(Tick when, std::uint64_t key, Event *ev);
    void pushFar(Tick when, std::uint64_t key, Event *ev);
    FarEntry popFarMin();

    /** Advance time to @p t, migrating far events into the wheel. */
    void advanceTo(Tick t);

    /**
     * Remove and return the next live event at or before
     * @p max_tick, advancing curTick_ to its tick. Returns nullptr
     * when the queue is drained (time untouched) or when the next
     * live event lies beyond the bound (time advanced to
     * @p max_tick).
     */
    Event *popNext(Tick max_tick);

    /** Null every entry referencing @p ev (dying with stale refs). */
    void purge(Event *ev);

    PooledEvent *acquirePooled();
    void releasePooled(PooledEvent *ev);

    std::array<Bucket, WheelSpan> wheel_;
    std::array<std::uint64_t, BitmapWords> bits_{};
    /** Entries (live or stale) currently in the wheel. */
    std::size_t wheelCount_ = 0;
    /** Min-heap on (when, key) of events at or beyond the horizon. */
    std::vector<FarEntry> far_;
    /** Reused scatter buffer for sortBucket's counting sort. */
    std::vector<WheelEntry> scratch_;

    Tick curTick_ = 0;
    std::uint64_t nextSequence_ = 0;
    std::uint64_t numExecuted_ = 0;
    std::size_t liveEvents_ = 0;

    PooledEvent *freeHead_ = nullptr;
    std::vector<std::unique_ptr<PooledEvent[]>> poolChunks_;
    std::size_t poolAllocated_ = 0;
};

} // namespace cmpcache

#endif // CMPCACHE_SIM_EVENT_QUEUE_HH
