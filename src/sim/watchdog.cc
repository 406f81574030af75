#include "sim/watchdog.hh"

#include <sstream>

#include "common/logging.hh"
#include "sim/cmp_system.hh"

namespace cmpcache
{

Watchdog::Watchdog(CmpSystem &sys, const WatchdogConfig &cfg)
    : sys_(sys),
      cfg_(cfg),
      wallStart_(std::chrono::steady_clock::now())
{
    cmp_assert(cfg_.enabled(), "watchdog built with every == 0");
    cmp_assert(cfg_.stallChecks > 0,
               "watchdog needs stallChecks >= 1");
}

void
Watchdog::start()
{
    post();
    lastProgress_ = progressCount();
}

void
Watchdog::post()
{
    EventQueue &eq = sys_.eventq();
    eq.at(eq.curTick() + cfg_.every, [this] { check(); }, "watchdog",
          EventQueue::StatPri);
}

std::uint64_t
Watchdog::progressCount() const
{
    std::uint64_t n = 0;
    for (unsigned t = 0; t < sys_.numCpus(); ++t)
        n += sys_.cpu(t).issued();
    for (unsigned i = 0; i < sys_.numL2s(); ++i)
        n += sys_.l2(i).wbCompleted();
    return n;
}

void
Watchdog::check()
{
    ++checks_;
    EventQueue &eq = sys_.eventq();
    const Tick now = eq.curTick();

    if (cfg_.wallSecs > 0) {
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wallStart_)
                .count();
        if (elapsed > static_cast<double>(cfg_.wallSecs)) {
            trip(SimErrorKind::Budget,
                 cstr("wall-clock budget exhausted (", cfg_.wallSecs,
                      "s) at tick ", now));
        }
    }

    if (sys_.finished())
        return; // drained; never keep the queue alive

    // Deadlock: we are the last event standing, yet CPUs still hold
    // unfinished traces. Nothing can ever run again.
    if (sys_.totalPending() == 0) {
        trip(SimErrorKind::Watchdog,
             cstr("deadlock: event queue drained at tick ", now,
                  " with unfinished traces"));
    }

    // Livelock by age: a single transaction outstanding too long.
    if (cfg_.maxTxnAge > 0) {
        Addr worst_line = InvalidAddr;
        Tick worst_age = 0;
        unsigned worst_retries = 0;
        const char *worst_what = "";
        for (unsigned i = 0; i < sys_.numL2s(); ++i) {
            sys_.l2(i).mshrFile().forEach([&](const Mshr &m) {
                const Tick age = now - m.allocated;
                if (age > worst_age) {
                    worst_age = age;
                    worst_line = m.lineAddr;
                    worst_retries = m.retries;
                    worst_what = "demand miss";
                }
            });
        }
        Addr ring_line = InvalidAddr;
        Tick ring_enq = MaxTick;
        if (sys_.ring().oldestPending(ring_line, ring_enq)
            && now - ring_enq > worst_age) {
            worst_age = now - ring_enq;
            worst_line = ring_line;
            worst_retries = 0;
            worst_what = "queued ring request";
        }
        if (worst_age > cfg_.maxTxnAge) {
            trip(SimErrorKind::Watchdog,
                 cstr("livelock: ", worst_what, " for line 0x",
                      std::hex, worst_line, std::dec, " outstanding ",
                      worst_age, " cycles (", worst_retries,
                      " retries, bound ", cfg_.maxTxnAge, ")"));
        }
    }

    // Livelock by starvation: events keep executing but nothing
    // architectural completes. Idle stretches (far-future events
    // only) are not livelock; require real event churn to count a
    // check as stalled.
    const std::uint64_t progress = progressCount();
    const std::uint64_t executed = sys_.totalExecuted();
    const bool churning = executed > lastExecuted_ + 1;
    lastExecuted_ = executed;
    if (churning && progress == lastProgress_) {
        if (++stalled_ >= cfg_.stallChecks) {
            trip(SimErrorKind::Watchdog,
                 cstr("livelock: no forward progress over ", stalled_,
                      " consecutive checks (", cfg_.every,
                      " cycles each) while events kept executing"));
        }
    } else {
        stalled_ = 0;
    }
    lastProgress_ = progress;

    post();
}

std::string
Watchdog::snapshot()
{
    EventQueue &eq = sys_.eventq();
    const Tick now = eq.curTick();
    std::ostringstream os;
    os << "watchdog snapshot @ tick " << now << " (check " << checks_
       << ", " << sys_.totalExecuted() << " events executed, "
       << sys_.totalPending() << " pending)\n";

    unsigned cpus_done = 0;
    std::uint64_t issued = 0;
    for (unsigned t = 0; t < sys_.numCpus(); ++t) {
        cpus_done += sys_.cpu(t).done() ? 1 : 0;
        issued += sys_.cpu(t).issued();
    }
    os << "  cpus: " << cpus_done << "/" << sys_.numCpus()
       << " done, " << issued << " refs issued\n";

    for (unsigned i = 0; i < sys_.numL2s(); ++i) {
        L2Cache &l2 = sys_.l2(i);
        os << "  l2_" << i << ": wbq "
           << l2.writeBackQueue().size() << "/"
           << l2.writeBackQueue().capacity() << ", mshrs "
           << l2.mshrFile().inUse() << "/"
           << l2.mshrFile().capacity();
        // The stuck-transaction candidates: the most-retried write
        // back and the oldest outstanding miss.
        const WbEntry *worst_wb = nullptr;
        l2.writeBackQueue().forEach([&](const WbEntry &e) {
            if (!worst_wb || e.retries > worst_wb->retries)
                worst_wb = &e;
        });
        if (worst_wb) {
            os << "; worst wb line 0x" << std::hex
               << worst_wb->lineAddr << std::dec << " ("
               << worst_wb->retries << " retries, "
               << (worst_wb->inFlight ? "in flight" : "queued")
               << ")";
        }
        const Mshr *oldest = nullptr;
        l2.mshrFile().forEach([&](const Mshr &m) {
            if (!oldest || m.allocated < oldest->allocated)
                oldest = &m;
        });
        if (oldest) {
            os << "; oldest miss line 0x" << std::hex
               << oldest->lineAddr << std::dec << " (age "
               << now - oldest->allocated << ", "
               << oldest->retries << " retries)";
        }
        os << "\n";
    }

    os << "  l3: incoming queue " << sys_.l3().incomingBusy()
       << " busy\n";
    os << "  ring: " << sys_.ring().pendingRequests()
       << " requests queued";
    Addr line = InvalidAddr;
    Tick enq = MaxTick;
    if (sys_.ring().oldestPending(line, enq)) {
        os << "; oldest line 0x" << std::hex << line << std::dec
           << " (age " << now - enq << ")";
    }
    os << "\n";
    os << "  retry window: gate "
       << (sys_.retryMonitor().active(now) ? "on" : "off");
    return os.str();
}

void
Watchdog::trip(SimErrorKind kind, const std::string &why)
{
    SimError err(kind, why + "\n" + snapshot());
    if (onTrip_)
        onTrip_(err);
    throw SimException(std::move(err));
}

} // namespace cmpcache
