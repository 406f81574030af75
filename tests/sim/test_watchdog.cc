/**
 * @file
 * Forward-progress watchdog tests: seeded fault plans wedge the
 * machine on purpose and the watchdog must turn the hang into a
 * structured, diagnosable error.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/cmp_system.hh"
#include "sim/simulation.hh"
#include "sim/watchdog.hh"
#include "trace/workloads_stress.hh"

using namespace cmpcache;

namespace
{

WorkloadParams
smallWorkload()
{
    return workloads::thrashStress(1000, 7);
}

/** A plan that NACKs every transaction forever: nothing can ever
 * complete, but retry events keep the queue churning -- livelock. */
SystemConfig
livelockedConfig()
{
    SystemConfig cfg;
    cfg.fault.plan = "nack:0:end";
    // Warmup off so misses actually reach the ring: the functional
    // warmup pass would install the whole footprint and leave the
    // timed pass with nothing to NACK.
    cfg.warmupPass = false;
    // Bound the event-loop runtime: the watchdog must fire long
    // before this safety net.
    cfg.maxTicks = 50ull * 1000 * 1000;
    return cfg;
}

} // namespace

TEST(Watchdog, QuietRunIsUnaffected)
{
    SystemConfig plain;
    Simulation a(plain, smallWorkload());
    const Tick base = a.run().execTime;

    SystemConfig watched;
    watched.watchdog.every = 10000;
    watched.watchdog.maxTxnAge = 1000000;
    Simulation b(watched, smallWorkload());
    EXPECT_EQ(b.run().execTime, base);
    ASSERT_NE(b.watchdog(), nullptr);
    EXPECT_GT(b.watchdog()->checksRun(), 0u);
}

TEST(Watchdog, TripsOnLivelockByStarvation)
{
    SystemConfig cfg = livelockedConfig();
    cfg.watchdog.every = 20000;
    cfg.watchdog.stallChecks = 3;

    Simulation sim(cfg, smallWorkload());
    try {
        sim.run();
        FAIL() << "expected a watchdog trip";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().kind, SimErrorKind::Watchdog);
        EXPECT_NE(e.error().message.find("no forward progress"),
                  std::string::npos)
            << e.error().message;
        // The diagnostic snapshot names machine state.
        EXPECT_NE(e.error().message.find("watchdog snapshot"),
                  std::string::npos);
    }
}

TEST(Watchdog, AgeBoundNamesTheStuckTransaction)
{
    SystemConfig cfg = livelockedConfig();
    cfg.watchdog.every = 20000;
    cfg.watchdog.maxTxnAge = 50000;
    // Age bound must beat the starvation detector to the trip.
    cfg.watchdog.stallChecks = 1000;

    Simulation sim(cfg, smallWorkload());
    try {
        sim.run();
        FAIL() << "expected a watchdog trip";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().kind, SimErrorKind::Watchdog);
        EXPECT_NE(e.error().message.find("livelock"),
                  std::string::npos)
            << e.error().message;
        // The stuck transaction is identified by line address, age
        // and retry count.
        EXPECT_NE(e.error().message.find("line 0x"),
                  std::string::npos)
            << e.error().message;
        EXPECT_NE(e.error().message.find("outstanding"),
                  std::string::npos);
    }
}

TEST(Watchdog, TripIsDeterministic)
{
    SystemConfig cfg = livelockedConfig();
    cfg.watchdog.every = 20000;
    cfg.watchdog.maxTxnAge = 50000;
    cfg.watchdog.stallChecks = 1000;

    std::vector<std::string> messages;
    for (int i = 0; i < 2; ++i) {
        Simulation sim(cfg, smallWorkload());
        try {
            sim.run();
            FAIL() << "expected a watchdog trip";
        } catch (const SimException &e) {
            messages.push_back(e.error().message);
        }
    }
    EXPECT_EQ(messages[0], messages[1]);
}

TEST(Watchdog, TripHookRunsBeforeThrow)
{
    SystemConfig cfg = livelockedConfig();
    cfg.watchdog.every = 20000;
    cfg.watchdog.stallChecks = 2;

    Simulation sim(cfg, smallWorkload());
    ASSERT_NE(sim.watchdog(), nullptr);
    bool hook_ran = false;
    sim.watchdog()->setTripHook([&](const SimError &err) {
        hook_ran = true;
        EXPECT_EQ(err.kind, SimErrorKind::Watchdog);
    });
    EXPECT_THROW(sim.run(), SimException);
    EXPECT_TRUE(hook_ran);
}

TEST(Watchdog, DetectsDeadlockedQueue)
{
    // Build a system whose CPUs were never started: the queue drains
    // with unfinished traces -- the watchdog's deadlock shape.
    SystemConfig cfg;
    cfg.watchdog.every = 1000;
    TraceBundle b;
    for (unsigned t = 0; t < cfg.numThreads(); ++t) {
        b.perThread.push_back(std::make_unique<VectorSource>(
            std::vector<TraceRecord>{{0x0, 0, static_cast<ThreadId>(t),
                                      MemOp::Load}}));
    }
    CmpSystem sys(cfg, std::move(b));
    Watchdog wd(sys, cfg.watchdog);
    wd.start();
    try {
        sys.eventq().run(cfg.maxTicks);
        FAIL() << "expected a watchdog trip";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().kind, SimErrorKind::Watchdog);
        EXPECT_NE(e.error().message.find("deadlock"),
                  std::string::npos)
            << e.error().message;
    }
}

TEST(Watchdog, BudgetOverrunIsStructured)
{
    // The maxTicks safety net now surfaces as SimException (Budget)
    // instead of killing the process.
    SystemConfig cfg = livelockedConfig();
    cfg.maxTicks = 200000; // no watchdog: hit the tick ceiling
    Simulation sim(cfg, smallWorkload());
    try {
        sim.run();
        FAIL() << "expected a budget overrun";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().kind, SimErrorKind::Budget);
        EXPECT_NE(e.error().message.find("safety limit"),
                  std::string::npos)
            << e.error().message;
    }
}

TEST(Watchdog, ConfigCrossChecksNameOffendingKeys)
{
    SystemConfig cfg;
    cfg.watchdog.every = 1000;
    cfg.watchdog.stallChecks = 0;
    cfg.fault.plan = "bogus:0:end";
    const auto errs = cfg.validationErrors();
    ASSERT_EQ(errs.size(), 2u);
    bool saw_plan = false, saw_stall = false;
    for (const auto &e : errs) {
        saw_plan |= e.find("fault.plan") != std::string::npos;
        saw_stall |=
            e.find("watchdog.stall_checks") != std::string::npos;
    }
    EXPECT_TRUE(saw_plan);
    EXPECT_TRUE(saw_stall);
}
