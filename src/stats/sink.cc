#include "stats/sink.hh"

#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace cmpcache
{
namespace stats
{

namespace
{

/** Default ostream formatting, detached from the target stream's
 * state (precision, flags) so output is caller-independent. */
template <typename T>
std::string
fmt(T v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

/** "bucket[lo,hi)" suffix of one histogram bucket. */
std::string
bucketKey(const Histogram &h, std::size_t i)
{
    std::ostringstream os;
    const double lo = h.bucketLow(i);
    os << "bucket[" << lo << "," << lo + h.bucketWidth() << ")";
    return os.str();
}

/**
 * One dump row. The text dump appends " # comment"; a histogram's
 * detail rows have no comment, which is not the same as an empty one.
 */
struct Row
{
    std::string key;
    std::string value;
    std::optional<std::string> comment;
};

/** The rows of stat @p s at dotted path @p path. */
std::vector<Row>
statRows(const std::string &path, const Stat &s)
{
    if (const auto *sc = dynamic_cast<const Scalar *>(&s))
        return {{path, fmt(sc->value()), s.desc()}};
    if (const auto *a = dynamic_cast<const Average *>(&s)) {
        return {{path, fmt(a->mean()),
                 s.desc() + " (samples=" + fmt(a->count()) + ")"}};
    }
    if (const auto *h = dynamic_cast<const Histogram *>(&s)) {
        std::vector<Row> rows{{path + ".mean", fmt(h->mean()), s.desc()},
                              {path + ".count", fmt(h->count()), {}}};
        if (h->underflow())
            rows.push_back({path + ".underflow", fmt(h->underflow()), {}});
        for (std::size_t i = 0; i < h->numBuckets(); ++i) {
            if (h->bucketCount(i)) {
                rows.push_back({path + "." + bucketKey(*h, i),
                                fmt(h->bucketCount(i)), {}});
            }
        }
        if (h->overflow())
            rows.push_back({path + ".overflow", fmt(h->overflow()), {}});
        return rows;
    }
    // A Formula: its evaluation.
    return {{path, fmt(s.sampledValue()), s.desc()}};
}

} // namespace

void
writeText(const Group &g, std::ostream &os)
{
    g.forEachStat([&os](const std::string &path, const Stat &s) {
        for (const Row &r : statRows(path, s)) {
            os << r.key << " " << r.value;
            if (r.comment)
                os << " # " << *r.comment;
            os << "\n";
        }
    });
}

void
writeJson(const Group &g, std::ostream &os)
{
    const char *sep = "";
    os << "{\n";
    g.forEachStat([&](const std::string &path, const Stat &s) {
        for (const Row &r : statRows(path, s)) {
            os << sep << "  \"" << r.key << "\": " << r.value;
            sep = ",\n";
        }
    });
    os << "\n}\n";
}

} // namespace stats
} // namespace cmpcache
