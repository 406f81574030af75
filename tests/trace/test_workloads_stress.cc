/** @file Tests for the stress-pattern workloads, including their
 * intended system-level effects on a small machine. */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "config_error.hh"
#include "sim/cmp_system.hh"
#include "trace/workloads_stress.hh"

using namespace cmpcache;
using namespace cmpcache::workloads;

TEST(Stress, AllNamesResolve)
{
    for (const auto &name : stressNames()) {
        const auto p = stressByName(name, 100, 1);
        EXPECT_EQ(p.name, name);
    }
}

TEST(StressDeath, UnknownNameIsFatal)
{
    EXPECT_TRUE(throwsNaming([] { stressByName("chaos", 100, 1); },
                             "unknown stress"));
}

TEST(Stress, StreamingNeverRepeatsWithinWindow)
{
    auto p = streamingStress(5000, 1);
    p.numThreads = 1;
    WorkloadThreadSource src(p, 0);
    std::set<Addr> seen;
    TraceRecord r;
    while (src.next(r))
        EXPECT_TRUE(seen.insert(r.addr).second)
            << "streaming repeated " << std::hex << r.addr;
}

TEST(Stress, PingpongStaysInSharedRegion)
{
    auto p = pingpongStress(2000, 1, 64);
    p.numThreads = 4;
    for (unsigned t = 0; t < 4; ++t) {
        WorkloadThreadSource src(p, static_cast<ThreadId>(t));
        TraceRecord r;
        while (src.next(r)) {
            EXPECT_GE(r.addr, region::SharedBase);
            EXPECT_LT(r.addr, region::SharedBase + 64 * 128);
        }
    }
}

TEST(Stress, UniformCoversFootprintEvenly)
{
    auto p = uniformStress(20000, 1, 64);
    p.numThreads = 1;
    WorkloadThreadSource src(p, 0);
    std::map<Addr, int> counts;
    TraceRecord r;
    while (src.next(r))
        ++counts[r.addr];
    EXPECT_EQ(counts.size(), 64u);
    for (const auto &[addr, n] : counts)
        EXPECT_NEAR(n, 20000 / 64, 150) << std::hex << addr;
}

namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.topology = TopologyParams::flat(2, 2);
    cfg.l2.sizeBytes = 16 * 1024;
    cfg.l2.assoc = 4;
    cfg.l3.sizeBytes = 128 * 1024;
    cfg.l3.assoc = 4;
    return cfg;
}

std::unique_ptr<CmpSystem>
makeRun(const WorkloadParams &base, bool warm = true)
{
    auto p = base;
    p.numThreads = 4;
    SyntheticWorkload wl(p);
    auto sys = std::make_unique<CmpSystem>(smallConfig(),
                                           wl.makeBundle());
    // The functional warmup installs per-L2 private-view copies (no
    // cross-L2 coherence; see DESIGN.md); pingpong-style footprints
    // that never evict must start cold to exercise invalidations.
    if (warm)
        sys->functionalWarmup(wl.makeBundle());
    return sys;
}

} // namespace

TEST(StressSystem, ThrashMaximizesRedundancy)
{
    // Thrash sized for the small L2 (16 KB = 128 lines; 2 threads x
    // 160 lines = 2.5x); footprint well inside the 128 KB L3.
    auto thrash = makeRun(thrashStress(8000, 1, 160));
    thrash->run();
    auto streaming = makeRun(streamingStress(8000, 1));
    streaming->run();

    const double thrash_redun =
        thrash->l3().cleanWbSeen()
            ? static_cast<double>(thrash->l3().cleanWbAlreadyValid())
                  / thrash->l3().cleanWbSeen()
            : 0.0;
    const double stream_redun =
        streaming->l3().cleanWbSeen()
            ? static_cast<double>(
                  streaming->l3().cleanWbAlreadyValid())
                  / streaming->l3().cleanWbSeen()
            : 0.0;
    EXPECT_GT(thrash_redun, 0.5);
    EXPECT_LT(stream_redun, 0.05);
}

TEST(StressSystem, PingpongDrivesUpgrades)
{
    auto sys = makeRun(pingpongStress(4000, 1, 32), /*warm=*/false);
    sys->run();
    const auto *up = sys->ring().collector().find("upgrades");
    ASSERT_NE(up, nullptr);
    EXPECT_GT(dynamic_cast<const stats::Scalar *>(up)->value(), 100u);
}

TEST(StressSystem, StreamingGoesToMemory)
{
    auto sys = makeRun(streamingStress(4000, 1));
    sys->run();
    // Nearly every miss is cold: memory supplies, the L3 serves ~none.
    EXPECT_LT(sys->l3().loadHitRate(), 0.05);
    EXPECT_GT(sys->mem().reads(), 3000u);
}
