#include "stats/stats.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cmpcache
{
namespace stats
{

Stat::Stat(Group *parent, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    cmp_assert(parent != nullptr, "stat '", name_, "' needs a group");
    parent->addStat(this);
}

Histogram::Histogram(Group *parent, std::string name, std::string desc,
                     double min, double max, std::size_t buckets)
    : Stat(parent, std::move(name), std::move(desc)),
      min_(min),
      max_(max),
      bucketWidth_((max - min) / static_cast<double>(buckets)),
      buckets_(buckets, 0)
{
    cmp_assert(max > min && buckets > 0,
               "histogram needs max > min and at least one bucket");
}

void
Histogram::sample(double v)
{
    ++count_;
    sum_ += v;
    if (v < min_) {
        ++underflow_;
    } else if (v >= max_) {
        ++overflow_;
    } else {
        auto idx = static_cast<std::size_t>((v - min_) / bucketWidth_);
        idx = std::min(idx, buckets_.size() - 1);
        ++buckets_[idx];
    }
}

Formula::Formula(Group *parent, std::string name, std::string desc,
                 std::function<double()> fn)
    : Stat(parent, std::move(name), std::move(desc)), fn_(std::move(fn))
{
}

Group::Group(std::string name) : name_(std::move(name)) {}

Group::Group(Group *parent, std::string name)
    : parent_(parent), name_(std::move(name))
{
    cmp_assert(parent_ != nullptr, "child group '", name_,
               "' needs a parent");
    parent_->addChild(this);
}

Group::~Group()
{
    if (parent_)
        parent_->removeChild(this);
}

void
Group::removeChild(Group *g)
{
    children_.erase(std::remove(children_.begin(), children_.end(), g),
                    children_.end());
}

std::string
Group::path() const
{
    if (!parent_)
        return name_;
    return parent_->path() + "." + name_;
}

void
Group::forEachStat(
    const std::function<void(const std::string &, const Stat &)> &fn)
    const
{
    const std::string prefix = path() + ".";
    for (const auto *s : stats_)
        fn(prefix + s->name(), *s);
    for (const auto *g : children_)
        g->forEachStat(fn);
}

const Stat *
Group::find(const std::string &dotted) const
{
    const auto dot = dotted.find('.');
    if (dot == std::string::npos) {
        for (const auto *s : stats_)
            if (s->name() == dotted)
                return s;
        return nullptr;
    }
    const std::string head = dotted.substr(0, dot);
    const std::string rest = dotted.substr(dot + 1);
    for (const auto *g : children_)
        if (g->name() == head)
            return g->find(rest);
    return nullptr;
}

} // namespace stats
} // namespace cmpcache
