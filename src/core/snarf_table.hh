/**
 * @file
 * The L2-to-L2 transfer ("snarf") table (paper section 3).
 *
 * A second history table, separate from the WBHT, that tracks lines
 * with reuse potential:
 *
 *  - the tag is entered when *any* L2 writes the line back (every L2
 *    snoops write-back transactions on the address ring);
 *  - the "use bit" is set when the line is missed on again (locally
 *    or by another L2) while its entry is still present;
 *  - when a line is written back and its entry has the use bit set,
 *    the write back is flagged "snarfable" on the bus, triggering the
 *    snarf algorithm at peer L2 caches.
 */

#ifndef CMPCACHE_CORE_SNARF_TABLE_HH
#define CMPCACHE_CORE_SNARF_TABLE_HH

#include "mem/tag_array.hh"
#include "stats/stats.hh"

namespace cmpcache
{

class SnarfTable : public stats::Group
{
  public:
    struct Params
    {
        std::uint64_t entries = 32768;
        unsigned assoc = 16;
        unsigned lineSize = 128;
    };

    SnarfTable(stats::Group *parent, const Params &p);

    /** A write back of @p addr was observed on the bus (any L2). */
    void recordWriteBack(Addr addr);

    /** A miss to @p addr was observed; set the use bit if present. */
    void recordMiss(Addr addr);

    /**
     * Consulted when this L2 writes @p addr back: flag the bus
     * transaction snarfable?
     */
    bool shouldFlagSnarf(Addr addr);

    /** Become a copy of @p other, entries and counters (functional
     * warmup gives every peer table the same history). */
    void copyStateFrom(const SnarfTable &other);

    HistoryArray &table() { return table_; }

  private:
    HistoryArray table_;

    stats::Scalar wbRecorded_;
    stats::Scalar missMarked_;
    stats::Scalar consulted_;
    stats::Scalar flagged_;
};

} // namespace cmpcache

#endif // CMPCACHE_CORE_SNARF_TABLE_HH
