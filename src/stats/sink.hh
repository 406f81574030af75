/**
 * @file
 * Full stats dumps of a Group subtree, in the two formats the CLI's
 * --stats-format offers:
 *
 *     stats::writeText(system, std::cout);       // "path value # desc"
 *     stats::writeJson(system, file);            // {"path": value, ...}
 *
 * Both walk the tree with Group::forEachStat and expand each stat into
 * the same rows, so the formats list the same keys in the same order.
 */

#ifndef CMPCACHE_STATS_SINK_HH
#define CMPCACHE_STATS_SINK_HH

#include <ostream>

#include "stats/stats.hh"

namespace cmpcache
{
namespace stats
{

/**
 * Serialize @p g as text lines ("path value # desc"), histograms
 * expanded into .mean/.count/.bucket[lo,hi) rows.
 */
void writeText(const Group &g, std::ostream &os);

/** Serialize @p g as one flat JSON object, rows as in writeText. */
void writeJson(const Group &g, std::ostream &os);

} // namespace stats
} // namespace cmpcache

#endif // CMPCACHE_STATS_SINK_HH
