#include "core/wbht.hh"

namespace cmpcache
{

WriteBackHistoryTable::WriteBackHistoryTable(stats::Group *parent,
                                             const Params &p)
    : stats::Group(parent, "wbht"),
      // Coarse-grained entries simply widen the alignment granule:
      // one tag then covers linesPerEntry consecutive lines.
      table_(p.entries * p.lineSize * p.linesPerEntry, p.assoc,
             p.lineSize * p.linesPerEntry),
      allocated_(this, "allocated", "entries allocated on L3-valid "
                 "combined responses"),
      consulted_(this, "consulted", "clean write backs that consulted "
                 "the table"),
      hits_(this, "hits", "table hits while consulting"),
      aborted_(this, "aborted", "clean write backs aborted"),
      correct_(this, "correct", "decisions matching L3 contents "
               "(oracle-scored)"),
      falseAbort_(this, "false_aborts", "aborts of lines not actually "
                  "in the L3"),
      missedAbort_(this, "missed_aborts", "write backs sent although "
                   "the line was already in the L3")
{
}

void
WriteBackHistoryTable::recordL3Valid(Addr addr)
{
    // A present line is refreshed; a new one takes the LRU way.
    if (!table_.lookup(addr))
        table_.insert(table_.findVictim(addr), addr, {.present = true});
    ++allocated_;
}

bool
WriteBackHistoryTable::shouldAbort(Addr addr, bool actually_in_l3)
{
    ++consulted_;
    const bool hit = table_.lookup(addr) != nullptr;
    if (hit)
        ++hits_;

    const bool abort = hit;
    if (abort == actually_in_l3)
        ++correct_;
    if (abort && !actually_in_l3)
        ++falseAbort_;
    if (!abort && actually_in_l3)
        ++missedAbort_;
    if (abort)
        ++aborted_;
    return abort;
}

void
WriteBackHistoryTable::copyStateFrom(const WriteBackHistoryTable &other)
{
    table_ = other.table_;
    allocated_.set(other.allocated_.value());
    consulted_.set(other.consulted_.value());
    hits_.set(other.hits_.value());
    aborted_.set(other.aborted_.value());
    correct_.set(other.correct_.value());
    falseAbort_.set(other.falseAbort_.value());
    missedAbort_.set(other.missedAbort_.value());
}

double
WriteBackHistoryTable::correctFraction() const
{
    const auto n = consulted_.value();
    return n ? static_cast<double>(correct_.value())
                   / static_cast<double>(n)
             : 0.0;
}

} // namespace cmpcache
