/**
 * @file
 * In-memory time series produced by the periodic sampler
 * (obs/sampler.hh) and its deterministic JSON block writer.
 *
 * A SampleSeries is column-oriented: one shared tick axis plus one
 * value column per watched statistic. Columns are named with the
 * stat's dotted path relative to the sampled root group
 * ("ring.pending_now").
 */

#ifndef CMPCACHE_OBS_TIME_SERIES_HH
#define CMPCACHE_OBS_TIME_SERIES_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"

namespace cmpcache
{

struct SampleSeries
{
    /** Sampling interval the series was captured with. */
    Tick interval = 0;

    /** Tick of each sample (shared by all channels, ascending). */
    std::vector<Tick> ticks;

    /** Channel names, in watch order. */
    std::vector<std::string> names;

    /** values[channel][sample]; every column has ticks.size()
     * entries. */
    std::vector<std::vector<double>> values;

    bool empty() const { return ticks.empty(); }
    std::size_t numSamples() const { return ticks.size(); }
    std::size_t numChannels() const { return names.size(); }

    bool operator==(const SampleSeries &) const = default;
};

/**
 * Write @p s as a JSON object:
 *
 *     {
 *       "sampleEvery": 5000,
 *       "ticks": [5000, 10000, ...],
 *       "series": {
 *         "ring.pending_now": [0, 3, ...],
 *         ...
 *       }
 *     }
 *
 * Deterministic (jsonDouble formatting); every line including the
 * opening brace is prefixed with @p indent spaces so the block can be
 * embedded at any nesting depth.
 */
void writeSampleSeriesJson(std::ostream &os, const SampleSeries &s,
                           unsigned indent = 0);

} // namespace cmpcache

#endif // CMPCACHE_OBS_TIME_SERIES_HH
