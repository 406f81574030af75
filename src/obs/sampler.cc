#include "obs/sampler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cmpcache
{

Sampler::Sampler(EventQueue &eq, const stats::Group &root,
                 Tick interval)
    : eq_(eq),
      root_(root),
      interval_(interval)
{
    cmp_assert(interval_ > 0, "sampler interval must be positive");
    series_.interval = interval_;
}

bool
Sampler::watch(const std::string &path)
{
    if (std::find(series_.names.begin(), series_.names.end(), path)
        != series_.names.end())
        return false;
    const stats::Stat *s = root_.find(path);
    if (!s)
        return false;
    cmp_assert(series_.ticks.empty(),
               "cannot add channels once sampling has produced data");
    series_.names.push_back(path);
    series_.values.emplace_back();
    stats_.push_back(s);
    return true;
}

void
Sampler::start()
{
    cmp_assert(!started_, "sampler started twice");
    started_ = true;
    post();
}

void
Sampler::post()
{
    eq_.at(eq_.curTick() + interval_, [this] { fire(); }, "obs-sampler",
           EventQueue::StatPri);
}

void
Sampler::fire()
{
    series_.ticks.push_back(eq_.curTick());
    for (std::size_t i = 0; i < stats_.size(); ++i)
        series_.values[i].push_back(stats_[i]->sampledValue());

    // Post the next sample only while the simulation itself still
    // has work: a lone periodic sampler must not keep the queue alive.
    if (eq_.numPending() > 0)
        post();
}

} // namespace cmpcache
