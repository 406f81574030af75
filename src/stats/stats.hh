/**
 * @file
 * Lightweight statistics package.
 *
 * Every simulated component owns a stats::Group and registers named
 * statistics with it. Groups nest, forming a dotted hierarchy
 * (e.g. "system.l2_1.wbht.hits"). Group::forEachStat walks a subtree
 * in registration order; the text and JSON dumps (src/stats/sink.hh)
 * format that walk, and the periodic sampler (src/obs/sampler.hh)
 * resolves its paths once with Group::find. Nothing resets a stat:
 * each counts from construction to the end of its simulation.
 */

#ifndef CMPCACHE_STATS_STATS_HH
#define CMPCACHE_STATS_STATS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace cmpcache
{
namespace stats
{

class Group;

/** Base class of all statistics. */
class Stat
{
  public:
    Stat(Group *parent, std::string name, std::string desc);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /**
     * The stat's instantaneous numeric value, as captured by the
     * periodic sampler: a Scalar's count, an Average's or Histogram's
     * mean, a Formula's evaluation.
     */
    virtual double sampledValue() const = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** A monotonically increasing (or explicitly set) counter. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(std::uint64_t v) { value_ += v; return *this; }
    void set(std::uint64_t v) { value_ = v; }

    std::uint64_t value() const { return value_; }

    double sampledValue() const override
    {
        return static_cast<double>(value_);
    }

  private:
    std::uint64_t value_ = 0;
};

/** Mean of a stream of samples. */
class Average : public Stat
{
  public:
    using Stat::Stat;

    void sample(double v) { sum_ += v; ++count_; }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t count() const { return count_; }

    double sampledValue() const override { return mean(); }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Fixed-bucket histogram over [min, max); samples outside the range
 * land in underflow/overflow buckets.
 */
class Histogram : public Stat
{
  public:
    Histogram(Group *parent, std::string name, std::string desc,
              double min, double max, std::size_t buckets);

    void sample(double v);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t bucketCount(std::size_t i) const { return buckets_[i]; }
    std::size_t numBuckets() const { return buckets_.size(); }
    double bucketLow(std::size_t i) const
    {
        return min_ + bucketWidth_ * static_cast<double>(i);
    }
    double bucketWidth() const { return bucketWidth_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    double sampledValue() const override { return mean(); }

  private:
    double min_;
    double max_;
    double bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/** A value computed from other statistics at visit time. */
class Formula : public Stat
{
  public:
    Formula(Group *parent, std::string name, std::string desc,
            std::function<double()> fn);

    double value() const { return fn_ ? fn_() : 0.0; }

    double sampledValue() const override { return value(); }

  private:
    std::function<double()> fn_;
};

/**
 * A named collection of statistics and child groups.
 */
class Group
{
  public:
    /** Root group. */
    explicit Group(std::string name);
    /** Child group; registers itself with @p parent. */
    Group(Group *parent, std::string name);
    virtual ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &name() const { return name_; }

    /** Full dotted path from the root. */
    std::string path() const;

    /**
     * Invoke @p fn for every stat in this subtree with its full dotted
     * path ("system.l2_0.hits"), in registration order: a group's own
     * stats first, then its children, depth first. The text and JSON
     * dumps are formatted from this walk.
     */
    void forEachStat(
        const std::function<void(const std::string &, const Stat &)>
            &fn) const;

    /** Find a stat by dotted path relative to this group; null if
     * absent. */
    const Stat *find(const std::string &dotted) const;

  private:
    friend class Stat;

    void addStat(Stat *s) { stats_.push_back(s); }
    void addChild(Group *g) { children_.push_back(g); }
    void removeChild(Group *g);

    Group *parent_ = nullptr;
    std::string name_;
    std::vector<Stat *> stats_;
    std::vector<Group *> children_;
};

} // namespace stats
} // namespace cmpcache

#endif // CMPCACHE_STATS_STATS_HH
