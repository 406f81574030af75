/**
 * @file
 * Configuration of the observability layer (docs/observability.md).
 *
 * Everything defaults to off: with sampleEvery == 0 no sampler event
 * is ever scheduled and with traceEnabled == false no recorder is
 * attached, so an unobserved simulation executes the exact same event
 * sequence (and produces byte-identical results) as one built before
 * this layer existed.
 */

#ifndef CMPCACHE_OBS_OBS_CONFIG_HH
#define CMPCACHE_OBS_OBS_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace cmpcache
{

struct ObsConfig
{
    /** Sampling interval in core cycles; 0 disables the sampler. */
    Tick sampleEvery = 0;

    /** Record coherence-transaction duration events for Chrome-trace
     * export. Not a config key: `--trace-out` turns it on, since a
     * trace nothing writes is of no use. */
    bool traceEnabled = false;

    /** Ring-buffer capacity of the trace recorder (newest events are
     * kept once it wraps). */
    std::uint64_t traceCapacity = 65536;

    /**
     * Register streaming-ingest gauges (ingest.* stats: records
     * decoded, demux window, ingest rate). They are deterministic,
     * but only a streaming run has them, so they are off by default:
     * a streamed run's stats dump then compares byte-for-byte with
     * the batch replay of the same trace. `cmpcache serve` turns
     * them on.
     */
    bool ingestGauges = false;
};

} // namespace cmpcache

#endif // CMPCACHE_OBS_OBS_CONFIG_HH
