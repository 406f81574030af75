#include "core/snarf_table.hh"

namespace cmpcache
{

SnarfTable::SnarfTable(stats::Group *parent, const Params &p)
    : stats::Group(parent, "snarf_table"),
      table_(p.entries * p.lineSize, p.assoc, p.lineSize),
      wbRecorded_(this, "wb_recorded",
                  "write backs whose tag was entered"),
      missMarked_(this, "miss_marked",
                  "misses that set a use bit"),
      consulted_(this, "consulted",
                 "write backs that consulted the table"),
      flagged_(this, "flagged",
               "write backs flagged snarfable on the bus")
{
}

void
SnarfTable::recordWriteBack(Addr addr)
{
    ++wbRecorded_;
    // A line written back again is refreshed and keeps its use bit.
    if (table_.lookup(addr))
        return;
    // Entries with demonstrated reuse survive the allocation churn of
    // unproven lines: the victim is the LRU way without a use bit,
    // and the LRU way only when every way has one.
    HistoryEntry *victim = table_.findVictimAmong(
        addr, [](const HistoryEntry &e) { return !e.used; });
    if (!victim)
        victim = table_.findVictim(addr);
    table_.insert(victim, addr, {.present = true});
}

void
SnarfTable::recordMiss(Addr addr)
{
    if (HistoryEntry *e = table_.lookup(addr)) {
        e->used = true;
        ++missMarked_;
    }
}

bool
SnarfTable::shouldFlagSnarf(Addr addr)
{
    ++consulted_;
    const HistoryEntry *e = table_.lookup(addr);
    const bool flag = e && e->used;
    if (flag)
        ++flagged_;
    return flag;
}

void
SnarfTable::copyStateFrom(const SnarfTable &other)
{
    table_ = other.table_;
    wbRecorded_.set(other.wbRecorded_.value());
    missMarked_.set(other.missMarked_.value());
    consulted_.set(other.consulted_.value());
    flagged_.set(other.flagged_.value());
}

} // namespace cmpcache
