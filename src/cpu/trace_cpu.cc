#include "cpu/trace_cpu.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cmpcache
{

TraceCpu::TraceCpu(stats::Group *parent, EventQueue &eq,
                   const std::string &name, ThreadId tid,
                   const CpuParams &p, L2Cache &l2,
                   std::unique_ptr<TraceSource> source)
    : SimObject(parent, name, eq),
      tid_(tid),
      params_(p),
      l2_(l2),
      source_(std::move(source)),
      issued_(this, "issued", "references issued to the L2"),
      hitsSeen_(this, "hits", "references that hit"),
      missesSeen_(this, "misses", "references that missed"),
      blockedSeen_(this, "blocked",
                   "attempts rejected by full L2 resources"),
      slotStalls_(this, "slot_stalls",
                  "stalls at the outstanding-miss limit")
{
    cmp_assert(params_.maxOutstanding > 0,
               "need at least one outstanding miss");
}

void
TraceCpu::startup()
{
    loadNextRecord();
    if (haveRecord_)
        scheduleAttempt(curTick() + cur_.gap);
    else
        checkDone();
}

void
TraceCpu::loadNextRecord()
{
    if (sourceExhausted_) {
        haveRecord_ = false;
        return;
    }
    haveRecord_ = source_->next(cur_);
    if (!haveRecord_)
        sourceExhausted_ = true;
}

void
TraceCpu::scheduleAttempt(Tick when)
{
    // At most one attempt is ever pending: startup posts the first,
    // each attempt posts the next unless it stalls at the slot limit,
    // and only that stall lets a miss completion post one.
    eventq().at(std::max(when, curTick()), [this] { attempt(); },
                "cpu-attempt");
}

void
TraceCpu::attempt()
{
    if (!haveRecord_) {
        checkDone();
        return;
    }

    if (outstanding_ >= params_.maxOutstanding) {
        // Stall at the memory-pressure limit; onMissComplete wakes us.
        ++slotStalls_;
        waitingForSlot_ = true;
        return;
    }

    const auto res = l2_.access(tid_, cur_.addr, cur_.op);
    switch (res) {
      case L2Cache::AccessResult::Blocked:
        ++blockedSeen_;
        scheduleAttempt(curTick() + params_.blockedRetry);
        return;

      case L2Cache::AccessResult::Hit:
        ++hitsSeen_;
        break;

      case L2Cache::AccessResult::Miss:
        ++missesSeen_;
        ++outstanding_;
        break;
    }

    ++issued_;
    loadNextRecord();
    if (!haveRecord_) {
        checkDone();
        return;
    }
    // Closed loop: the gap is think time after this issue.
    scheduleAttempt(curTick() + cur_.gap);
}

void
TraceCpu::onMissComplete()
{
    cmp_assert(outstanding_ > 0, "completion without outstanding miss");
    --outstanding_;
    if (waitingForSlot_) {
        waitingForSlot_ = false;
        scheduleAttempt(curTick());
    }
    checkDone();
}

void
TraceCpu::checkDone()
{
    if (done_ || haveRecord_ || !sourceExhausted_ || outstanding_ > 0)
        return;
    done_ = true;
    finishTick_ = curTick();
}

} // namespace cmpcache
