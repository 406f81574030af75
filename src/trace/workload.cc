#include "trace/workload.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace cmpcache
{

WorkloadSamplers::WorkloadSamplers(const WorkloadParams &params)
    : privateRegion(std::max<std::uint64_t>(params.privateLines, 1),
                    params.privateZipf),
      sharedRegion(std::max<std::uint64_t>(params.sharedLines, 1),
                   params.sharedZipf),
      kernelRegion(std::max<std::uint64_t>(params.kernelLines, 1), 0.5)
{
}

WorkloadThreadSource::WorkloadThreadSource(const WorkloadParams &params,
                                           ThreadId tid)
    : WorkloadThreadSource(params, tid, WorkloadSamplers(params))
{
}

WorkloadThreadSource::WorkloadThreadSource(
    const WorkloadParams &params, ThreadId tid,
    const WorkloadSamplers &samplers)
    : params_(params),
      tid_(tid),
      rng_(params.seed * 0x9e3779b97f4a7c15ull + tid + 1),
      samplers_(samplers)
{
    cmp_assert(isPowerOf2(params_.lineSize), "line size must be 2^k");
    cmp_assert(tid < params_.numThreads, "tid out of range");
}

Addr
WorkloadThreadSource::lineToAddr(Addr region_base,
                                 std::uint64_t line) const
{
    return region_base + line * params_.lineSize;
}

bool
WorkloadThreadSource::next(TraceRecord &rec)
{
    if (produced_ >= params_.recordsPerThread)
        return false;

    // Phase behaviour: periodically slide the private hot set so that
    // previously hot lines go cold (get evicted) and later come back.
    if (params_.phaseLength > 0 && produced_ > 0
        && produced_ % params_.phaseLength == 0) {
        const auto shift = static_cast<std::uint64_t>(
            static_cast<double>(params_.privateLines)
            * params_.phaseShift);
        // Rotate the hot zone *within* the fixed private footprint so
        // previously-hot lines go cold (eviction), then come back
        // (reuse after eviction, not pure streaming) -- without
        // growing the total working set.
        phaseBase_ = (phaseBase_ + shift)
                     % std::max<std::uint64_t>(params_.privateLines, 1);
    }

    rec.tid = tid_;
    rec.gap = static_cast<std::uint32_t>(
        rng_.geometric(params_.gapMean));

    const double region_draw = rng_.real();
    double edge = params_.kernelFrac;
    if (region_draw < edge) {
        // Kernel region: shared by all threads, instruction-heavy.
        const std::uint64_t line = samplers_.kernelRegion.sample(rng_);
        rec.addr = lineToAddr(region::KernelBase, line);
        rec.op = rng_.chance(0.7) ? MemOp::IFetch
                                  : (rng_.chance(params_.storeFrac * 0.3)
                                         ? MemOp::Store
                                         : MemOp::Load);
        ++produced_;
        return true;
    }
    edge += params_.sharedFrac;
    if (region_draw < edge) {
        const std::uint64_t line = samplers_.sharedRegion.sample(rng_);
        rec.addr = lineToAddr(region::SharedBase, line);
        const double sf = params_.sharedStoreFrac >= 0.0
                              ? params_.sharedStoreFrac
                              : params_.storeFrac;
        rec.op = rng_.chance(sf) ? MemOp::Store : MemOp::Load;
        ++produced_;
        return true;
    }
    edge += params_.streamFrac;
    if (region_draw < edge) {
        const Addr base =
            region::StreamBase + tid_ * region::PerThreadSpan;
        const std::uint64_t line = streamCursor_++;
        rec.addr = lineToAddr(
            base, line % std::max<std::uint64_t>(params_.streamLines, 1));
        rec.op = rng_.chance(params_.storeFrac) ? MemOp::Store
                                                : MemOp::Load;
        ++produced_;
        return true;
    }

    // Private hot region (per thread or per thread-group), shifted by
    // the current phase.
    const unsigned group =
        tid_ / std::max(params_.privateGroupSize, 1u);
    const Addr base = region::PrivateBase + group * region::PerThreadSpan;
    const std::uint64_t line =
        (phaseBase_ + samplers_.privateRegion.sample(rng_))
        % std::max<std::uint64_t>(params_.privateLines, 1);
    rec.addr = lineToAddr(base, line);
    rec.op = rng_.chance(params_.storeFrac) ? MemOp::Store : MemOp::Load;
    ++produced_;
    return true;
}

TraceBundle
SyntheticWorkload::makeBundle() const
{
    TraceBundle bundle;
    bundle.perThread.reserve(params_.numThreads);
    for (unsigned t = 0; t < params_.numThreads; ++t) {
        bundle.perThread.push_back(
            std::make_unique<WorkloadThreadSource>(
                params_, static_cast<ThreadId>(t), samplers_));
    }
    return bundle;
}

PerThreadRecords
SyntheticWorkload::generate() const
{
    TraceBundle bundle = makeBundle();
    PerThreadRecords out(params_.numThreads);
    for (unsigned t = 0; t < params_.numThreads; ++t) {
        out[t].reserve(params_.recordsPerThread);
        TraceRecord r;
        while (bundle.perThread[t]->next(r))
            out[t].push_back(r);
    }
    return out;
}

std::vector<TraceRecord>
SyntheticWorkload::materialize() const
{
    auto bundle = makeBundle();
    std::vector<TraceRecord> out;
    out.reserve(params_.numThreads * params_.recordsPerThread);
    bool any = true;
    while (any) {
        any = false;
        for (auto &src : bundle.perThread) {
            TraceRecord r;
            if (src->next(r)) {
                out.push_back(r);
                any = true;
            }
        }
    }
    return out;
}

} // namespace cmpcache
