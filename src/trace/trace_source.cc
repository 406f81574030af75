#include "trace/trace_source.hh"

#include <istream>

#include "common/logging.hh"
#include "trace/trace_io.hh"

namespace cmpcache
{

BoundedRecordQueue::BoundedRecordQueue(std::size_t capacity)
    : capacity_(capacity ? capacity : 1)
{
}

bool
BoundedRecordQueue::push(const TraceRecord &rec)
{
    std::unique_lock<std::mutex> lk(mtx_);
    if (q_.size() >= capacity_ && !aborted_) {
        blockedWaits_.fetch_add(1, std::memory_order_relaxed);
        notFull_.wait(lk, [&] {
            return q_.size() < capacity_ || aborted_;
        });
    }
    if (aborted_)
        return false;
    q_.push_back(rec);
    depth_.store(q_.size(), std::memory_order_relaxed);
    pushed_.fetch_add(1, std::memory_order_relaxed);
    notEmpty_.notify_one();
    return true;
}

bool
BoundedRecordQueue::pop(TraceRecord &rec)
{
    std::unique_lock<std::mutex> lk(mtx_);
    notEmpty_.wait(lk, [&] {
        return !q_.empty() || closed_ || aborted_;
    });
    if (aborted_ || q_.empty())
        return false;
    rec = q_.front();
    q_.pop_front();
    depth_.store(q_.size(), std::memory_order_relaxed);
    popped_.fetch_add(1, std::memory_order_relaxed);
    notFull_.notify_one();
    return true;
}

void
BoundedRecordQueue::close()
{
    std::lock_guard<std::mutex> lk(mtx_);
    closed_ = true;
    notEmpty_.notify_all();
}

void
BoundedRecordQueue::fail(SimError e)
{
    std::lock_guard<std::mutex> lk(mtx_);
    err_ = std::move(e);
    failed_ = true;
    closed_ = true;
    notEmpty_.notify_all();
}

void
BoundedRecordQueue::abort()
{
    std::lock_guard<std::mutex> lk(mtx_);
    aborted_ = true;
    q_.clear();
    depth_.store(0, std::memory_order_relaxed);
    notFull_.notify_all();
    notEmpty_.notify_all();
}

bool
BoundedRecordQueue::failed() const
{
    std::lock_guard<std::mutex> lk(mtx_);
    return failed_;
}

SimError
BoundedRecordQueue::error() const
{
    std::lock_guard<std::mutex> lk(mtx_);
    return err_;
}

StreamDemux::StreamDemux(BoundedRecordQueue &q, unsigned numThreads,
                         std::size_t skewCap)
    : q_(q), skewCap_(skewCap ? skewCap : 1), perThread_(numThreads)
{
}

bool
StreamDemux::pull(ThreadId tid, TraceRecord &rec)
{
    std::unique_lock<std::mutex> lk(mtx_);
    auto &mine = perThread_.at(tid);
    for (;;) {
        if (!mine.empty()) {
            rec = mine.front();
            mine.pop_front();
            buffered_.fetch_sub(1, std::memory_order_relaxed);
            return true;
        }
        if (failed_)
            throw SimException(err_);
        if (eof_)
            return false;
        // Pull the next interleaved record. Holding our lock across
        // the (possibly blocking) pop is safe: the producer only
        // touches the queue, never this mutex.
        TraceRecord r;
        if (!q_.pop(r)) {
            eof_ = true;
            if (q_.failed()) {
                failed_ = true;
                err_ = q_.error();
            }
            continue;
        }
        if (r.tid >= perThread_.size()) {
            failed_ = true;
            err_ = SimError(
                SimErrorKind::Trace,
                cstr("stream record names thread ", r.tid,
                     " but the system has ", perThread_.size(),
                     " threads"));
            throw SimException(err_);
        }
        if (r.tid == tid) {
            rec = r;
            return true;
        }
        if (buffered_.load(std::memory_order_relaxed) >= skewCap_) {
            failed_ = true;
            err_ = SimError(
                SimErrorKind::Trace,
                cstr("stream demux skew cap (", skewCap_,
                     " records) exceeded waiting for thread ", tid,
                     "; the stream's threads are interleaved too "
                     "unevenly (raise stream.demux_capacity)"));
            throw SimException(err_);
        }
        perThread_[r.tid].push_back(r);
        buffered_.fetch_add(1, std::memory_order_relaxed);
    }
}

StreamIngest::StreamIngest(std::unique_ptr<std::istream> in,
                           const StreamParams &params,
                           unsigned numThreads)
    : in_(std::move(in)), q_(params.queueCapacity),
      demux_(q_, numThreads, params.demuxCapacity),
      numThreads_(numThreads)
{
    reader_ = std::thread(&StreamIngest::readerMain, this);
}

StreamIngest::~StreamIngest()
{
    stop();
}

void
StreamIngest::readerMain()
{
    TraceStreamParser parser(*in_);
    TraceRecord rec;
    for (;;) {
        switch (parser.next(rec)) {
          case TraceStreamParser::Status::Record:
            if (!q_.push(rec))
                return; // aborted: the sim is tearing down
            break;
          case TraceStreamParser::Status::Eof:
            q_.close();
            return;
          case TraceStreamParser::Status::Error:
            q_.fail(parser.error());
            return;
        }
    }
}

TraceBundle
StreamIngest::makeBundle()
{
    TraceBundle bundle;
    bundleMade_ = true;
    for (unsigned t = 0; t < numThreads_; ++t) {
        bundle.perThread.push_back(std::make_unique<DemuxSource>(
            demux_, static_cast<ThreadId>(t)));
    }
    return bundle;
}

void
StreamIngest::stop()
{
    if (stopped_)
        return;
    stopped_ = true;
    q_.abort();
    if (reader_.joinable())
        reader_.join();
}

} // namespace cmpcache
