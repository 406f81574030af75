#include "trace/trace.hh"

#include "common/logging.hh"

namespace cmpcache
{

const char *
toString(MemOp op)
{
    switch (op) {
      case MemOp::Load:
        return "L";
      case MemOp::Store:
        return "S";
      case MemOp::IFetch:
        return "I";
    }
    return "?";
}

TraceBundle
splitByThread(const std::vector<TraceRecord> &records,
              unsigned num_threads)
{
    cmp_assert(num_threads > 0, "need at least one thread");
    std::vector<std::vector<TraceRecord>> buckets(num_threads);
    for (const auto &r : records) {
        cmp_assert(r.tid < num_threads, "record tid ", r.tid,
                   " out of range for ", num_threads, " threads");
        buckets[r.tid].push_back(r);
    }
    TraceBundle bundle;
    bundle.perThread.reserve(num_threads);
    for (auto &b : buckets)
        bundle.perThread.push_back(
            std::make_unique<VectorSource>(std::move(b)));
    return bundle;
}

TraceBundle
spanBundle(const PerThreadRecords &records)
{
    TraceBundle bundle;
    bundle.perThread.reserve(records.size());
    for (const auto &thread : records)
        bundle.perThread.push_back(std::make_unique<SpanSource>(thread));
    return bundle;
}

} // namespace cmpcache
