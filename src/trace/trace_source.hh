/**
 * @file
 * Streaming trace ingestion: bounded-buffer sources, arrival models,
 * and the reader-thread pipeline behind `cmpcache serve`.
 *
 * The batch path materializes a whole trace and splits it per thread
 * (splitByThread). The streaming path keeps memory bounded instead:
 * a reader thread decodes records incrementally (TraceStreamParser)
 * into a BoundedRecordQueue, and a StreamDemux splits the interleaved
 * stream into per-thread TraceSources on the consumer side, buffering
 * at most a configured skew window. See docs/serving.md for the wire
 * format, the backpressure contract and the bounded-memory guarantee.
 *
 * Arrival models (docs/serving.md):
 *  - closed-loop: a record's gap is think time relative to the
 *    previous *completion* on that thread (the classic batch-replay
 *    behavior; stalls push all later work back).
 *  - open-loop: gaps are interarrival times on an absolute clock
 *    stamped by the generator; a stalled CPU falls behind and then
 *    catches up in a burst, like a server draining a request queue.
 *    ArrivalStamper re-stamps any source with Poisson (geometric in
 *    whole ticks) interarrivals, optionally burst-modulated.
 */

#ifndef CMPCACHE_TRACE_TRACE_SOURCE_HH
#define CMPCACHE_TRACE_TRACE_SOURCE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/random.hh"
#include "trace/trace.hh"

namespace cmpcache
{

/** How record gaps are interpreted by the issuing CPU. */
enum class ArrivalModel : std::uint8_t
{
    Closed, ///< gap = think time after the previous issue (default)
    Open,   ///< gap = interarrival time on an absolute clock
};

const char *toString(ArrivalModel m);

/** Arrival-model selection plus open-loop generator parameters. */
struct ArrivalConfig
{
    ArrivalModel model = ArrivalModel::Closed;
    /**
     * Open loop: mean arrivals per tick per thread (> 0). The mean
     * interarrival gap is 1/rate ticks, sampled geometrically.
     */
    double rate = 0.0;
    /**
     * Burst modulation: when burstPeriod > 0, the first half of every
     * burstPeriod-tick window runs burstFactor times faster than the
     * configured rate (the second half runs at the plain rate).
     */
    double burstFactor = 1.0;
    std::uint64_t burstPeriod = 0;
    /** Seed for the per-thread interarrival samplers. */
    std::uint64_t seed = 1;
};

/**
 * Parse a CLI arrival spec: "closed" or "open:<rate>".
 * SimError (Config) names the offending spec on failure.
 */
Expected<ArrivalConfig> parseArrivalSpec(const std::string &spec);

/**
 * Decorator that re-stamps a source's gaps with sampled open-loop
 * interarrival times. Deterministic: the sample sequence depends only
 * on (seed, tid). Used when the trace's own gaps encode closed-loop
 * think time but the run wants generator-driven open-loop load.
 */
class ArrivalStamper : public TraceSource
{
  public:
    ArrivalStamper(std::unique_ptr<TraceSource> inner,
                   const ArrivalConfig &cfg, ThreadId tid);

    bool next(TraceRecord &rec) override;

  private:
    std::unique_ptr<TraceSource> inner_;
    ArrivalConfig cfg_;
    Rng rng_;
    double meanGap_;
    /** Cumulative stamped arrival time, drives burst phasing. */
    std::uint64_t clock_ = 0;
};

/** What a producer does when the ingest queue is full. */
enum class OverflowPolicy : std::uint8_t
{
    Block, ///< backpressure: push blocks until space (lossless)
    Drop,  ///< load shedding: record is discarded and counted
};

/**
 * Bounded MPSC record queue between the reader thread and the sim.
 * All counters are monotonically increasing and safe to read from any
 * thread without the lock (obs gauges sample them live).
 */
class BoundedRecordQueue
{
  public:
    explicit BoundedRecordQueue(std::size_t capacity,
                                OverflowPolicy policy);

    /**
     * Enqueue @p rec. Block policy: waits for space (false only after
     * abort()). Drop policy: returns true immediately, counting the
     * record as dropped when the queue was full.
     */
    bool push(const TraceRecord &rec);

    /**
     * Dequeue into @p rec, waiting for a record.
     * @return false when the queue is closed (or aborted) and empty.
     */
    bool pop(TraceRecord &rec);

    /** Producer is done: consumers drain the rest, then pop() = false. */
    void close();

    /**
     * Producer failed: close the queue carrying @p e so consumers
     * can surface it (error() after pop() returns false).
     */
    void fail(SimError e);

    /** Tear down: unblock everyone, drop queued records. */
    void abort();

    bool failed() const;
    /** The producer's failure; valid only once failed(). */
    SimError error() const;

    std::size_t capacity() const { return capacity_; }
    std::size_t depth() const { return depth_.load(std::memory_order_relaxed); }
    std::uint64_t pushed() const { return pushed_.load(std::memory_order_relaxed); }
    std::uint64_t popped() const { return popped_.load(std::memory_order_relaxed); }
    std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
    /** Cumulative ticks producers spent blocked on a full queue. */
    std::uint64_t blockedWaits() const { return blockedWaits_.load(std::memory_order_relaxed); }

  private:
    const std::size_t capacity_;
    const OverflowPolicy policy_;
    mutable std::mutex mtx_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    std::deque<TraceRecord> q_;
    bool closed_ = false;
    bool aborted_ = false;
    bool failed_ = false;
    SimError err_;
    std::atomic<std::size_t> depth_{0};
    std::atomic<std::uint64_t> pushed_{0};
    std::atomic<std::uint64_t> popped_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> blockedWaits_{0};
};

/**
 * Consumer-side splitter: pulls the interleaved stream off a
 * BoundedRecordQueue and hands each CPU its own thread's
 * subsequence. Records for other threads encountered while looking
 * for ours are buffered, up to a total skew cap -- a stream whose
 * threads are interleaved more unevenly than the cap fails with a
 * structured error instead of growing without bound, which is what
 * keeps the streaming path's memory bounded end to end.
 *
 * Thread safe (internally locked). Per-thread subsequences are
 * preserved regardless of pull order, so streamed results are
 * byte-identical to the batch path.
 */
class StreamDemux
{
  public:
    StreamDemux(BoundedRecordQueue &q, unsigned numThreads,
                std::size_t skewCap);

    /**
     * Next record for @p tid; false at end of stream. Throws
     * SimException (Trace) on skew-cap overflow, an out-of-range tid
     * in the stream, or a propagated producer error.
     */
    bool pull(ThreadId tid, TraceRecord &rec);

    std::size_t buffered() const { return buffered_.load(std::memory_order_relaxed); }

  private:
    BoundedRecordQueue &q_;
    const std::size_t skewCap_;
    std::mutex mtx_;
    std::vector<std::deque<TraceRecord>> perThread_;
    bool eof_ = false;
    bool failed_ = false;
    SimError err_;
    std::atomic<std::size_t> buffered_{0};
};

/** TraceSource view of one thread's slice of a StreamDemux. */
class DemuxSource : public TraceSource
{
  public:
    DemuxSource(StreamDemux &demux, ThreadId tid)
        : demux_(demux), tid_(tid)
    {
    }

    bool next(TraceRecord &rec) override { return demux_.pull(tid_, rec); }

  private:
    StreamDemux &demux_;
    ThreadId tid_;
};

/** Knobs for the reader-thread pipeline (stream.* config keys). */
struct StreamParams
{
    std::size_t queueCapacity = 4096;
    OverflowPolicy overflow = OverflowPolicy::Block;
    /** Total records the demux may buffer across threads. */
    std::size_t demuxCapacity = 1u << 16;
};

/**
 * The streaming ingestion pipeline: owns the input stream, the
 * reader thread that decodes it, the bounded queue, and the demux.
 * Construction starts the reader; destruction aborts the queue and
 * joins. makeBundle() yields the per-thread sources a CmpSystem
 * consumes -- resident memory is bounded by
 * queueCapacity + demuxCapacity records no matter how long the
 * stream is.
 */
class StreamIngest
{
  public:
    StreamIngest(std::unique_ptr<std::istream> in,
                 const StreamParams &params, unsigned numThreads);
    ~StreamIngest();

    StreamIngest(const StreamIngest &) = delete;
    StreamIngest &operator=(const StreamIngest &) = delete;

    /** Per-thread DemuxSources; call at most once. */
    TraceBundle makeBundle();

    /** Unblock and join the reader thread (idempotent). */
    void stop();

    /// @name Live gauges (safe from any thread; sampled by obs).
    /// @{
    std::size_t queueDepth() const { return q_.depth(); }
    std::uint64_t recordsIngested() const { return q_.pushed(); }
    std::uint64_t recordsDropped() const { return q_.dropped(); }
    std::uint64_t producerBlockedWaits() const { return q_.blockedWaits(); }
    std::size_t demuxBuffered() const { return demux_.buffered(); }
    /// @}

  private:
    void readerMain();

    std::unique_ptr<std::istream> in_;
    BoundedRecordQueue q_;
    StreamDemux demux_;
    unsigned numThreads_;
    bool bundleMade_ = false;
    bool stopped_ = false;
    std::thread reader_;
};

} // namespace cmpcache

#endif // CMPCACHE_TRACE_TRACE_SOURCE_HH
