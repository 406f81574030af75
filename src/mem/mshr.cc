#include "mem/mshr.hh"

#include "common/logging.hh"

namespace cmpcache
{

MshrFile::MshrFile(unsigned capacity)
    : capacity_(capacity), slots_(capacity),
      tags_(capacity, InvalidAddr)
{
    cmp_assert(capacity > 0, "MSHR file needs at least one slot");
    // Waiter lists survive deallocate() (clear() keeps capacity), so
    // they only ever grow to their high-water mark -- but that growth
    // would land mid-run.
    for (auto &m : slots_)
        m.waiters.reserve(kReservedWaiters);
}

Mshr *
MshrFile::allocate(Addr line_addr, BusCmd cmd, ThreadId tid,
                   bool is_store, Tick now)
{
    cmp_assert(!full(), "allocating in a full MSHR file");
    cmp_assert(find(line_addr) == nullptr,
               "line already has an MSHR");
    for (auto &m : slots_) {
        if (m.valid())
            continue;
        m.lineAddr = line_addr;
        m.cmd = cmd;
        m.inService = false;
        m.awaitingData = false;
        m.retries = 0;
        m.allocated = now;
        m.waiters.clear();
        m.waiters.push_back(MshrWaiter{tid, is_store, now});
        tags_[static_cast<std::size_t>(&m - slots_.data())] = line_addr;
        ++inUse_;
        return &m;
    }
    cmp_panic("MSHR accounting out of sync");
}

void
MshrFile::addWaiter(Mshr *mshr, ThreadId tid, bool is_store, Tick now)
{
    cmp_assert(mshr && mshr->valid(), "waiter on invalid MSHR");
    mshr->waiters.push_back(MshrWaiter{tid, is_store, now});
    // A store joining a pending load upgrades the request if it has
    // not left the cache yet; once in service the store will issue an
    // Upgrade after the fill instead (handled by the controller).
    if (is_store && !mshr->inService && mshr->cmd == BusCmd::Read)
        mshr->cmd = BusCmd::ReadExcl;
}

void
MshrFile::deallocate(Mshr *mshr)
{
    cmp_assert(mshr && mshr->valid(), "deallocating invalid MSHR");
    mshr->lineAddr = InvalidAddr;
    mshr->waiters.clear();
    tags_[static_cast<std::size_t>(mshr - slots_.data())] = InvalidAddr;
    cmp_assert(inUse_ > 0, "MSHR accounting underflow");
    --inUse_;
}

} // namespace cmpcache
