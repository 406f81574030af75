#include "l1/l1_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cmpcache
{

L1Cache::L1Cache(const L1Params &p)
    : params_(p),
      itags_(p.iSizeBytes, p.assoc, p.lineSize,
             makeReplacementPolicy(p.replPolicy)),
      dtags_(p.dSizeBytes, p.assoc, p.lineSize,
             makeReplacementPolicy(p.replPolicy))
{
}

double
L1Cache::hitRate() const
{
    const auto n = hits_ + misses_;
    return n ? static_cast<double>(hits_) / static_cast<double>(n)
             : 0.0;
}

L1Cache::Result
L1Cache::access(Addr addr, MemOp op)
{
    TagArray &tags = op == MemOp::IFetch ? itags_ : dtags_;
    Result res;

    if (TagEntry *e = tags.lookup(addr)) {
        ++hits_;
        res.hit = true;
        if (op == MemOp::Store)
            e->state = LineState::Modified;
        return res;
    }

    ++misses_;
    TagEntry *victim = tags.findVictim(addr);
    if (victim->valid() && isDirty(victim->state)) {
        ++dirtyVictims_;
        res.victimDirty = true;
        res.victimAddr = victim->lineAddr;
    }
    tags.insert(victim, addr,
                op == MemOp::Store ? LineState::Modified
                                   : LineState::Exclusive);
    return res;
}

L1FilteredSource::L1FilteredSource(std::unique_ptr<TraceSource> raw,
                                   const L1Params &p)
    : raw_(std::move(raw)), l1_(p), hitCycles_(p.hitCycles)
{
    cmp_assert(raw_ != nullptr, "L1 filter needs a raw source");
}

bool
L1FilteredSource::next(TraceRecord &rec)
{
    while (true) {
        if (!pending_.empty()) {
            rec = pending_.front();
            pending_.pop_front();
            return true;
        }

        TraceRecord raw;
        if (!raw_->next(raw))
            return false;

        const auto res = l1_.access(raw.addr, raw.op);
        if (res.hit) {
            // Absorbed: its think-time folds into the next record.
            // (Runs of L1 hits thus never reach the event kernel at
            // all.)
            accumulatedGap_ += raw.gap + hitCycles_;
            continue;
        }

        rec = raw;
        rec.gap = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(raw.gap + accumulatedGap_,
                                    0xffffffffull));
        accumulatedGap_ = 0;

        if (res.victimDirty) {
            // The dirty victim flows down as store traffic right
            // after the miss (the L1's write back to the L2).
            TraceRecord wb;
            wb.addr = res.victimAddr;
            wb.gap = 0;
            wb.tid = raw.tid;
            wb.op = MemOp::Store;
            pending_.push_back(wb);
        }
        return true;
    }
}

TraceBundle
filterThroughL1(TraceBundle raw, const L1Params &p)
{
    TraceBundle out;
    out.perThread.reserve(raw.perThread.size());
    for (auto &src : raw.perThread) {
        out.perThread.push_back(
            std::make_unique<L1FilteredSource>(std::move(src), p));
    }
    return out;
}

} // namespace cmpcache
