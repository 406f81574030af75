#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace cmpcache
{

Event::~Event()
{
    if (scheduled_ && queue_)
        queue_->deschedule(this);
    if (liveEntries_ != 0 && queue_)
        queue_->purge(this);
}

EventQueue::EventQueue()
{
    // Give every bucket (and the far heap) its working capacity up
    // front. Buckets are vectors that never shrink, so without this
    // each of the 1024 buckets reallocates on its own schedule as it
    // discovers its high-water mark, sprinkling allocations deep into
    // otherwise steady-state runs.
    for (auto &b : wheel_)
        b.entries.reserve(16);
    far_.reserve(64);
    scratch_.reserve(64);
}

void
PooledEvent::process()
{
    EventQueue *home = home_;
    InplaceFunction<void(), FnCapacity> fn = std::move(fn_);
    // Return to the free list first so the callback can recycle this
    // object for the events it schedules.
    home->releasePooled(this);
    fn();
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    cmp_assert(ev != nullptr, "scheduling null event");
    cmp_assert(!ev->scheduled_, "event '", ev->name(),
               "' is already scheduled");
    cmp_assert(when >= curTick_, "event '", ev->name(),
               "' scheduled in the past (", when, " < ", curTick_, ")");

    const std::uint64_t seq = nextSequence_++;
    ev->scheduled_ = true;
    ev->when_ = when;
    ev->sequence_ = seq;
    ev->queue_ = this;
    ++ev->liveEntries_;
    ++liveEvents_;

    const std::uint64_t key = makeKey(ev->priority_, seq);
    if (when < horizonOf(curTick_))
        pushWheel(when, key, ev);
    else
        pushFar(when, key, ev);
}

void
EventQueue::deschedule(Event *ev)
{
    cmp_assert(ev != nullptr && ev->scheduled_,
               "descheduling an unscheduled event");
    cmp_assert(ev->queue_ == this, "event belongs to another queue");
    // Lazy removal: clearing scheduled_ invalidates the entry's
    // generation (its snapshotted sequence), so it is discarded when
    // it surfaces -- one integer compare, no hashing. The event's
    // liveEntries_ refcount keeps destruction safe meanwhile.
    ev->scheduled_ = false;
    --liveEvents_;
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->scheduled_)
        deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::pushWheel(Tick when, std::uint64_t key, Event *ev)
{
    const auto b = static_cast<unsigned>(when & WheelMask);
    Bucket &bucket = wheel_[b];
    if (bucket.entries.empty())
        setBit(b);
    else if (key < bucket.entries.back().key)
        bucket.dirty = true;
    bucket.entries.push_back(WheelEntry{key, ev});
    ++wheelCount_;
}

void
EventQueue::pushFar(Tick when, std::uint64_t key, Event *ev)
{
    far_.push_back(FarEntry{when, key, ev});
    std::push_heap(far_.begin(), far_.end(),
                   [](const FarEntry &a, const FarEntry &b) {
                       return a.when != b.when ? a.when > b.when
                                               : a.key > b.key;
                   });
}

EventQueue::FarEntry
EventQueue::popFarMin()
{
    std::pop_heap(far_.begin(), far_.end(),
                  [](const FarEntry &a, const FarEntry &b) {
                      return a.when != b.when ? a.when > b.when
                                              : a.key > b.key;
                  });
    const FarEntry e = far_.back();
    far_.pop_back();
    return e;
}

void
EventQueue::sortBucket(Bucket &b)
{
    if (!b.dirty)
        return;
    // Appends always carry ascending sequence numbers, so a dirty
    // pending range is k interleaved ascending runs distinguished by
    // the key's priority byte. A stable counting sort on that byte
    // therefore restores full (priority, sequence) order in O(n) --
    // considerably cheaper than a comparison sort for the same-tick
    // bursts that set the dirty flag in the first place.
    const auto first = b.entries.begin()
                       + static_cast<std::ptrdiff_t>(b.head);
    const auto n = static_cast<std::size_t>(b.entries.end() - first);
    std::array<std::uint32_t, 257> counts{};
    for (std::size_t i = 0; i < n; ++i)
        ++counts[(first[i].key >> 56) + 1];
    for (unsigned p = 1; p < 257; ++p)
        counts[p] += counts[p - 1];
    scratch_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        scratch_[counts[first[i].key >> 56]++] = first[i];
    std::copy(scratch_.begin(), scratch_.end(), first);
    b.dirty = false;
}

int
EventQueue::nextOccupied(Tick start_tick) const
{
    const auto start = static_cast<unsigned>(start_tick & WheelMask);
    unsigned w = start >> 6;
    std::uint64_t word = bits_[w] & (~std::uint64_t{0} << (start & 63));
    for (unsigned i = 0;; ++i) {
        if (word) {
            const unsigned b =
                (w << 6) + static_cast<unsigned>(std::countr_zero(word));
            return static_cast<int>((b - start) & WheelMask);
        }
        if (i == BitmapWords)
            return -1;
        w = (w + 1) & (BitmapWords - 1);
        word = bits_[w];
    }
}

void
EventQueue::advanceTo(Tick t)
{
    cmp_assert(t >= curTick_, "time went backwards");
    curTick_ = t;
    const Tick horizon = horizonOf(t);
    // Feed far-future events whose tick is now inside the wheel
    // window into the wheel, preserving the (when, priority,
    // sequence) order via the per-bucket sorted insert.
    while (!far_.empty() && far_.front().when < horizon) {
        const FarEntry e = popFarMin();
        pushWheel(e.when, e.key, e.ev);
    }
}

Event *
EventQueue::popNext(Tick max_tick)
{
    for (;;) {
        // With no live events the queue is empty regardless of any
        // stale entries still parked in the wheel or heap; returning
        // before the bound check below keeps run(max_tick) from
        // advancing time on an empty queue (stale entries are lazily
        // reclaimed whenever their buckets are next visited).
        if (liveEvents_ == 0)
            return nullptr;
        if (wheelCount_ != 0) {
            const int dist = nextOccupied(curTick_);
            cmp_assert(dist >= 0, "wheel occupancy out of sync");
            const Tick t = curTick_ + static_cast<Tick>(dist);
            // Every pending event, wheel or far, lies at or beyond
            // the nearest occupied bucket, so the bound check needs
            // no skimming of that bucket's stale entries first.
            if (t > max_tick) {
                advanceTo(max_tick);
                return nullptr;
            }
            const auto bi = static_cast<unsigned>(t & WheelMask);
            Bucket &b = wheel_[bi];
            sortBucket(b);
            while (b.head != b.entries.size()) {
                const WheelEntry e = b.entries[b.head];
                ++b.head;
                if (b.head == b.entries.size()) {
                    b.entries.clear();
                    b.head = 0;
                    clearBit(bi);
                }
                --wheelCount_;
                if (!isLive(e.ev, e.key)) {
                    if (e.ev)
                        --e.ev->liveEntries_;
                    continue;
                }
                if (t != curTick_)
                    advanceTo(t);
                e.ev->scheduled_ = false;
                --e.ev->liveEntries_;
                --liveEvents_;
                return e.ev;
            }
            continue; // bucket held only stale entries; rescan
        }
        if (far_.empty())
            return nullptr;
        const FarEntry &top = far_.front();
        if (!isLive(top.ev, top.key)) {
            const FarEntry e = popFarMin();
            if (e.ev)
                --e.ev->liveEntries_;
            continue;
        }
        if (top.when > max_tick) {
            advanceTo(max_tick);
            return nullptr;
        }
        const FarEntry e = popFarMin();
        advanceTo(e.when);
        e.ev->scheduled_ = false;
        --e.ev->liveEntries_;
        --liveEvents_;
        return e.ev;
    }
}

void
EventQueue::step()
{
    Event *ev = popNext(MaxTick);
    cmp_assert(ev != nullptr, "step() on an empty event queue");
    ++numExecuted_;
    ev->process();
}

Tick
EventQueue::run(Tick max_tick)
{
    // popNext() advances to max_tick itself when the next event lies
    // beyond it, and leaves time untouched when the queue drains --
    // matching the long-standing run() semantics with a single scan
    // per event instead of a peek-then-pop pair.
    while (Event *ev = popNext(max_tick)) {
        ++numExecuted_;
        ev->process();
        // Same-tick fast path: drain the rest of the current tick's
        // bucket without re-entering popNext's wheel scan. A callback
        // can only schedule at curTick_ (into this very bucket, which
        // is re-sorted below if that lands out of order) or later, so
        // bucket order remains global order.
        const auto bi = static_cast<unsigned>(curTick_ & WheelMask);
        Bucket &b = wheel_[bi];
        while (b.head != b.entries.size()) {
            sortBucket(b);
            const WheelEntry e = b.entries[b.head];
            ++b.head;
            if (b.head == b.entries.size()) {
                b.entries.clear();
                b.head = 0;
                clearBit(bi);
            }
            --wheelCount_;
            if (!isLive(e.ev, e.key)) {
                if (e.ev)
                    --e.ev->liveEntries_;
                continue;
            }
            e.ev->scheduled_ = false;
            --e.ev->liveEntries_;
            --liveEvents_;
            ++numExecuted_;
            e.ev->process();
        }
    }
    return curTick_;
}

void
EventQueue::purge(Event *ev)
{
    for (auto &b : wheel_) {
        for (std::size_t i = b.head; i < b.entries.size(); ++i) {
            if (b.entries[i].ev == ev)
                b.entries[i].ev = nullptr;
        }
    }
    for (auto &e : far_) {
        if (e.ev == ev)
            e.ev = nullptr;
    }
    ev->liveEntries_ = 0;
}

PooledEvent *
EventQueue::acquirePooled()
{
    if (!freeHead_) {
        poolChunks_.push_back(std::make_unique<PooledEvent[]>(PoolChunk));
        PooledEvent *chunk = poolChunks_.back().get();
        for (std::size_t i = 0; i < PoolChunk; ++i) {
            chunk[i].nextFree_ = freeHead_;
            freeHead_ = &chunk[i];
        }
        poolAllocated_ += PoolChunk;
    }
    PooledEvent *ev = freeHead_;
    freeHead_ = ev->nextFree_;
    ev->nextFree_ = nullptr;
    return ev;
}

void
EventQueue::releasePooled(PooledEvent *ev)
{
    ev->nextFree_ = freeHead_;
    freeHead_ = ev;
}

EventQueue::~EventQueue()
{
    // Sever every surviving entry's link to its event so that events
    // outliving the queue (component members, external wrappers) do
    // not touch freed queue state from their destructors.
    const auto release = [](Event *ev) {
        if (!ev)
            return;
        ev->scheduled_ = false;
        ev->liveEntries_ = 0;
        ev->queue_ = nullptr;
    };
    for (auto &b : wheel_) {
        for (std::size_t i = b.head; i < b.entries.size(); ++i)
            release(b.entries[i].ev);
    }
    for (auto &e : far_)
        release(e.ev);
}

} // namespace cmpcache
