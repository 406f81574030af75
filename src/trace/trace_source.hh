/**
 * @file
 * Streaming trace ingestion: bounded-buffer sources and the
 * reader-thread pipeline behind `cmpcache serve`.
 *
 * The batch path materializes a whole trace and splits it per thread
 * (splitByThread). The streaming path keeps memory bounded instead:
 * a reader thread decodes records incrementally (TraceStreamParser)
 * into a BoundedRecordQueue, and a StreamDemux splits the interleaved
 * stream into per-thread TraceSources on the consumer side, buffering
 * at most a configured skew window. See docs/serving.md for the wire
 * format, the backpressure contract and the bounded-memory guarantee.
 *
 * Replay is closed loop: a record's gap is think time after the
 * previous issue on its thread, so stalls push all later work back.
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
#include "trace/trace.hh"

namespace cmpcache
{

/**
 * Bounded MPSC record queue between the reader thread and the sim.
 * Lossless: a producer facing a full queue blocks until there is
 * space. All counters are monotonically increasing and safe to read
 * from any thread without the lock (obs gauges sample them live).
 */
class BoundedRecordQueue
{
  public:
    explicit BoundedRecordQueue(std::size_t capacity);

    /** Enqueue @p rec, waiting for space (false only after abort()). */
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
    /** Times a producer blocked on a full queue. */
    std::uint64_t blockedWaits() const { return blockedWaits_.load(std::memory_order_relaxed); }

  private:
    const std::size_t capacity_;
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
