#include "core/snarf_table.hh"

namespace cmpcache
{

SnarfTable::SnarfTable(stats::Group *parent, const Params &p)
    : stats::Group(parent, "snarf_table"),
      table_(p.entries, p.assoc, p.lineSize, /*protect_used=*/true),
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
    table_.allocate(addr);
    ++wbRecorded_;
}

void
SnarfTable::recordMiss(Addr addr)
{
    if (table_.markUsed(addr))
        ++missMarked_;
}

bool
SnarfTable::shouldFlagSnarf(Addr addr)
{
    ++consulted_;
    const bool flag = table_.useBitSet(addr);
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
