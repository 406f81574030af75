/**
 * @file
 * The Write Back History Table (paper section 2).
 *
 * One WBHT sits next to each L2 cache. It records lines whose clean
 * write back drew an "already valid in L3" snoop response, and is
 * consulted when a clean victim sits in the write-back queue: a hit
 * predicts the line is still in the L3, so the write back is aborted.
 * A wrong prediction costs performance only (a later miss pays full
 * memory latency), never correctness.
 */

#ifndef CMPCACHE_CORE_WBHT_HH
#define CMPCACHE_CORE_WBHT_HH

#include "mem/tag_array.hh"
#include "stats/stats.hh"

namespace cmpcache
{

class WriteBackHistoryTable : public stats::Group
{
  public:
    struct Params
    {
        /** Table entries; the paper's default is 32 K (~9% of the L2
         * size in tag terms). */
        std::uint64_t entries = 32768;
        unsigned assoc = 16;
        unsigned lineSize = 128;
        /**
         * Cache lines covered by one entry (power of two). The
         * paper's future-work proposal for shrinking the WBHT:
         * coarser entries give greater coverage at the risk of more
         * mispredictions (one line's L3-validity stands in for its
         * whole group's).
         */
        unsigned linesPerEntry = 1;
    };

    WriteBackHistoryTable(stats::Group *parent, const Params &p);

    /**
     * Record that the combined response for a clean write back of
     * @p addr reported the line valid in the L3.
     */
    void recordL3Valid(Addr addr);

    /**
     * Should this clean write back be aborted? (Consulted in the
     * write-back queue, off the miss critical path.)
     *
     * @param actually_in_l3 oracle input used *only* to score the
     *        decision (the paper "peeks into the L3 cache in the
     *        simulator" to report prediction accuracy, Table 4)
     */
    bool shouldAbort(Addr addr, bool actually_in_l3);

    /** Become a copy of @p other, entries and counters (functional
     * warmup gives every WBHT the same history under global
     * allocation). */
    void copyStateFrom(const WriteBackHistoryTable &other);

    HistoryArray &table() { return table_; }

    std::uint64_t aborts() const { return aborted_.value(); }
    std::uint64_t correct() const { return correct_.value(); }
    std::uint64_t decisions() const { return consulted_.value(); }

  private:
    HistoryArray table_;

    stats::Scalar allocated_;
    stats::Scalar consulted_;
    stats::Scalar hits_;
    stats::Scalar aborted_;
    stats::Scalar correct_;
    stats::Scalar falseAbort_;  ///< aborted but line was NOT in L3
    stats::Scalar missedAbort_; ///< sent but line WAS in L3
};

} // namespace cmpcache

#endif // CMPCACHE_CORE_WBHT_HH
