#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace cmpcache
{

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
}

EventQueue::PooledEvent *
EventQueue::post(Tick when, const char *what, Priority prio)
{
    cmp_assert(when >= curTick_, "event '", what,
               "' scheduled in the past (", when, " < ", curTick_, ")");

    if (!freeHead_) {
        poolChunks_.push_back(std::make_unique<PooledEvent[]>(PoolChunk));
        PooledEvent *chunk = poolChunks_.back().get();
        for (std::size_t i = 0; i < PoolChunk; ++i) {
            chunk[i].nextFree = freeHead_;
            freeHead_ = &chunk[i];
        }
    }
    PooledEvent *ev = freeHead_;
    freeHead_ = ev->nextFree;

    const std::uint64_t key = makeKey(prio, nextSequence_++);
    if (when < horizonOf(curTick_))
        pushWheel(when, key, ev);
    else
        pushFar(when, key, ev);
    return ev;
}

void
EventQueue::pushWheel(Tick when, std::uint64_t key, PooledEvent *ev)
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

namespace
{

template <typename Entry>
bool
laterFirst(const Entry &a, const Entry &b)
{
    return a.when != b.when ? a.when > b.when : a.key > b.key;
}

} // namespace

void
EventQueue::pushFar(Tick when, std::uint64_t key, PooledEvent *ev)
{
    far_.push_back(FarEntry{when, key, ev});
    std::push_heap(far_.begin(), far_.end(), laterFirst<FarEntry>);
}

void
EventQueue::sortBucket(Bucket &b)
{
    // Keys are unique (every post takes a fresh sequence), so a plain
    // sort restores (priority, sequence) order.
    std::sort(b.entries.begin() + static_cast<std::ptrdiff_t>(b.head),
              b.entries.end(),
              [](const WheelEntry &x, const WheelEntry &y) {
                  return x.key < y.key;
              });
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
    // window into the wheel; they arrive in (when, key) order, so a
    // bucket they land in stays sorted.
    while (!far_.empty() && far_.front().when < horizon) {
        std::pop_heap(far_.begin(), far_.end(), laterFirst<FarEntry>);
        const FarEntry e = far_.back();
        far_.pop_back();
        pushWheel(e.when, e.key, e.ev);
    }
}

bool
EventQueue::advanceToNext(Tick max_tick)
{
    Tick t;
    if (wheelCount_ != 0) {
        // Every far event lies beyond every wheel event, so the
        // nearest occupied bucket holds the next event.
        const int dist = nextOccupied(curTick_);
        cmp_assert(dist >= 0, "wheel occupancy out of sync");
        t = curTick_ + static_cast<Tick>(dist);
    } else if (!far_.empty()) {
        t = far_.front().when; // advanceTo() moves it into the wheel
    } else {
        return false; // drained: time stays
    }
    if (t > max_tick) {
        advanceTo(max_tick);
        return false;
    }
    advanceTo(t);
    return true;
}

Tick
EventQueue::run(Tick max_tick)
{
    for (;;) {
        // The current tick's bucket holds no other tick, so events
        // run from it until it is drained.
        const auto bi = static_cast<unsigned>(curTick_ & WheelMask);
        Bucket &b = wheel_[bi];
        if (b.entries.empty() || curTick_ > max_tick) {
            if (!advanceToNext(max_tick))
                return curTick_;
            continue;
        }
        if (b.dirty)
            sortBucket(b);
        PooledEvent *ev = b.entries[b.head].ev;
        if (++b.head == b.entries.size()) {
            b.entries.clear();
            b.head = 0;
            clearBit(bi);
        }
        --wheelCount_;
        ++numExecuted_;
        // Run the callback in place; the events it posts take other
        // pool objects. One that throws stays off the free list, and
        // its capture dies with the queue.
        ev->fn();
        ev->fn.reset();
        ev->nextFree = freeHead_;
        freeHead_ = ev;
    }
}

} // namespace cmpcache
