/**
 * @file
 * Streaming trace ingestion: the on-demand decoder and per-thread
 * demux behind `cmpcache serve`.
 *
 * The batch path materializes a whole trace and splits it per thread
 * (splitByThread). The streaming path keeps memory bounded instead:
 * StreamIngest decodes records incrementally (TraceStreamParser) on
 * the simulation thread, only when a CPU needs its next record, and
 * splits the interleaved stream into per-thread TraceSources,
 * buffering at most a configured skew window. See docs/serving.md for
 * the wire format, the backpressure contract and the bounded-memory
 * guarantee.
 *
 * Replay is closed loop: a record's gap is think time after the
 * previous issue on its thread, so stalls push all later work back.
 */

#ifndef CMPCACHE_TRACE_TRACE_SOURCE_HH
#define CMPCACHE_TRACE_TRACE_SOURCE_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/error.hh"
#include "trace/trace.hh"
#include "trace/trace_io.hh"

namespace cmpcache
{

/** Knobs for streaming ingestion (stream.* config keys). */
struct StreamParams
{
    /** Total records the demux may buffer across threads. */
    std::size_t demuxCapacity = 1u << 16;
};

/**
 * The streaming ingestion pipeline: owns the input stream and its
 * parser, and hands each CPU its own thread's subsequence of the
 * interleaved stream. A CPU that needs its next record pulls it;
 * records for other threads decoded on the way are buffered, up to
 * a total skew cap -- a stream whose threads are interleaved more
 * unevenly than the cap fails with a structured error instead of
 * growing without bound, which is what keeps the streaming path's
 * memory bounded end to end.
 *
 * Per-thread subsequences are preserved regardless of pull order, so
 * streamed results are byte-identical to the batch path.
 */
class StreamIngest
{
  public:
    StreamIngest(std::unique_ptr<std::istream> in,
                 const StreamParams &params, unsigned numThreads);

    StreamIngest(const StreamIngest &) = delete;
    StreamIngest &operator=(const StreamIngest &) = delete;

    /** Per-thread DemuxSources over this pipeline. */
    TraceBundle makeBundle();

    /**
     * Next record for @p tid; false at end of stream. Throws
     * SimException (Trace or Io) on skew-cap overflow, an
     * out-of-range tid in the stream, or a decode error; records
     * decoded before the failure are still delivered, and the error
     * is sticky.
     */
    bool pull(ThreadId tid, TraceRecord &rec);

    /// @name Gauges (sampled by obs).
    /// @{
    std::uint64_t recordsIngested() const
    {
        return parser_.recordsRead();
    }
    std::size_t demuxBuffered() const { return buffered_; }
    /// @}

  private:
    [[noreturn]] void fail(SimError e);

    std::unique_ptr<std::istream> in_;
    TraceStreamParser parser_;
    const std::size_t skewCap_;
    std::vector<std::deque<TraceRecord>> perThread_;
    std::size_t buffered_ = 0;
    bool failed_ = false;
    SimError err_;
};

/** TraceSource view of one thread's slice of a StreamIngest. */
class DemuxSource : public TraceSource
{
  public:
    DemuxSource(StreamIngest &ingest, ThreadId tid)
        : ingest_(ingest), tid_(tid)
    {
    }

    bool next(TraceRecord &rec) override
    {
        return ingest_.pull(tid_, rec);
    }

  private:
    StreamIngest &ingest_;
    ThreadId tid_;
};

} // namespace cmpcache

#endif // CMPCACHE_TRACE_TRACE_SOURCE_HH
