#include "obs/sampler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cmpcache
{

Sampler::Sampler(EventQueue &eq, const stats::Group &root,
                 Tick interval)
    : eq_(eq),
      root_(root),
      interval_(interval),
      event_([this] { fire(); }, "obs-sampler", Event::StatPri)
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

std::size_t
Sampler::watchMatching(const SamplerSink::Filter &filter)
{
    // Paths arrive with the root group's own name prefixed
    // ("system.ring.requests"); both the filter and the channel names
    // use root-relative paths, matching watch().
    const std::string prefix = root_.path() + ".";
    const auto strip = [&prefix](const std::string &p) {
        return p.compare(0, prefix.size(), prefix) == 0
                   ? p.substr(prefix.size())
                   : p;
    };
    SamplerSink sink(filter ? SamplerSink::Filter(
                         [&](const std::string &p) {
                             return filter(strip(p));
                         })
                            : SamplerSink::Filter{});
    root_.emitStats(sink);
    std::size_t added = 0;
    for (const auto &ch : sink.channels()) {
        std::string rel = ch.path;
        if (rel.compare(0, prefix.size(), prefix) == 0)
            rel = rel.substr(prefix.size());
        if (std::find(series_.names.begin(), series_.names.end(), rel)
            != series_.names.end())
            continue;
        cmp_assert(series_.ticks.empty(),
                   "cannot add channels once sampling has produced "
                   "data");
        series_.names.push_back(std::move(rel));
        series_.values.emplace_back();
        stats_.push_back(ch.stat);
        ++added;
    }
    return added;
}

void
Sampler::start()
{
    cmp_assert(!started_, "sampler started twice");
    started_ = true;
    eq_.schedule(&event_, eq_.curTick() + interval_);
}

void
Sampler::fire()
{
    series_.ticks.push_back(eq_.curTick());
    for (std::size_t i = 0; i < stats_.size(); ++i)
        series_.values[i].push_back(stats_[i]->sampledValue());

    // Reschedule only while the simulation itself still has work:
    // a lone self-rescheduling sampler must not keep the queue alive.
    if (eq_.numPending() > 0)
        eq_.schedule(&event_, eq_.curTick() + interval_);
}

} // namespace cmpcache
