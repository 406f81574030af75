/**
 * @file
 * Memory-reference trace abstractions.
 *
 * The paper drives its simulator with L2-traffic traces captured on
 * real SMP hardware (i.e. streams of L1 miss references, per hardware
 * thread). cmpcache uses the same model: a TraceSource yields
 * TraceRecords for one hardware thread; the TraceCpu issues them into
 * the cache hierarchy subject to the outstanding-miss limit.
 */

#ifndef CMPCACHE_TRACE_TRACE_HH
#define CMPCACHE_TRACE_TRACE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hh"

namespace cmpcache
{

/** Kind of memory reference. */
enum class MemOp : std::uint8_t
{
    Load = 0,
    Store = 1,
    IFetch = 2,
};

const char *toString(MemOp op);

/** One L2-traffic reference from one hardware thread. */
struct TraceRecord
{
    /** Physical address of the access (byte granularity). */
    Addr addr = 0;
    /**
     * Core cycles of compute between the previous reference of this
     * thread and this one. Large gaps model high CPU utilization /
     * low memory pressure (e.g. NotesBench); small gaps model
     * memory-bound phases.
     */
    std::uint32_t gap = 0;
    ThreadId tid = 0;
    MemOp op = MemOp::Load;

    bool operator==(const TraceRecord &) const = default;
};

/** Per-thread stream of trace records. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next record.
     * @return false when the stream is exhausted (rec untouched).
     */
    virtual bool next(TraceRecord &rec) = 0;
};

/** TraceSource over an in-memory vector (used by tests and readers). */
class VectorSource : public TraceSource
{
  public:
    explicit VectorSource(std::vector<TraceRecord> recs)
        : records_(std::move(recs))
    {
    }

    bool
    next(TraceRecord &rec) override
    {
        if (pos_ >= records_.size())
            return false;
        rec = records_[pos_++];
        return true;
    }

    std::size_t remaining() const { return records_.size() - pos_; }

  private:
    std::vector<TraceRecord> records_;
    std::size_t pos_ = 0;
};

/**
 * TraceSource over records it does not own: many sources can replay
 * one array, which must outlive them.
 */
class SpanSource : public TraceSource
{
  public:
    explicit SpanSource(std::span<const TraceRecord> recs)
        : records_(recs)
    {
    }

    bool
    next(TraceRecord &rec) override
    {
        if (pos_ >= records_.size())
            return false;
        rec = records_[pos_++];
        return true;
    }

  private:
    std::span<const TraceRecord> records_;
    std::size_t pos_ = 0;
};

/**
 * A bundle of per-thread sources: what a CmpSystem consumes.
 */
struct TraceBundle
{
    std::vector<std::unique_ptr<TraceSource>> perThread;

    unsigned numThreads() const
    {
        return static_cast<unsigned>(perThread.size());
    }
};

/** Split one interleaved record vector into per-thread VectorSources. */
TraceBundle splitByThread(const std::vector<TraceRecord> &records,
                          unsigned num_threads);

/** A whole trace held per thread: element t is thread t's stream. */
using PerThreadRecords = std::vector<std::vector<TraceRecord>>;

/** SpanSources replaying @p records in place (nothing is copied;
 * @p records must outlive the bundle). */
TraceBundle spanBundle(const PerThreadRecords &records);

} // namespace cmpcache

#endif // CMPCACHE_TRACE_TRACE_HH
