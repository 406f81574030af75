#include "trace/trace_source.hh"

#include <istream>

#include "common/logging.hh"

namespace cmpcache
{

StreamIngest::StreamIngest(std::unique_ptr<std::istream> in,
                           const StreamParams &params,
                           unsigned numThreads)
    : in_(std::move(in)), parser_(*in_),
      skewCap_(params.demuxCapacity ? params.demuxCapacity : 1),
      perThread_(numThreads)
{
}

TraceBundle
StreamIngest::makeBundle()
{
    TraceBundle bundle;
    for (std::size_t t = 0; t < perThread_.size(); ++t) {
        bundle.perThread.push_back(std::make_unique<DemuxSource>(
            *this, static_cast<ThreadId>(t)));
    }
    return bundle;
}

void
StreamIngest::fail(SimError e)
{
    failed_ = true;
    err_ = std::move(e);
    throw SimException(err_);
}

bool
StreamIngest::pull(ThreadId tid, TraceRecord &rec)
{
    auto &mine = perThread_.at(tid);
    if (!mine.empty()) {
        rec = mine.front();
        mine.pop_front();
        --buffered_;
        return true;
    }
    if (failed_)
        throw SimException(err_);
    // Decode until our thread's next record turns up, parking the
    // other threads' records in their queues on the way.
    TraceRecord r;
    for (;;) {
        switch (parser_.next(r)) {
          case TraceStreamParser::Status::Record:
            break;
          case TraceStreamParser::Status::Eof:
            return false;
          case TraceStreamParser::Status::Error:
            fail(parser_.error());
        }
        if (r.tid >= perThread_.size()) {
            fail(SimError(
                SimErrorKind::Trace,
                cstr("stream record names thread ", r.tid,
                     " but the system has ", perThread_.size(),
                     " threads")));
        }
        if (r.tid == tid) {
            rec = r;
            return true;
        }
        if (buffered_ >= skewCap_) {
            fail(SimError(
                SimErrorKind::Trace,
                cstr("stream demux skew cap (", skewCap_,
                     " records) exceeded waiting for thread ", tid,
                     "; the stream's threads are interleaved too "
                     "unevenly (raise stream.demux_capacity)")));
        }
        perThread_[r.tid].push_back(r);
        ++buffered_;
    }
}

} // namespace cmpcache
