/** @file Tests for the synthetic workload generators. */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "config_error.hh"
#include "trace/workload.hh"
#include "trace/workloads_commercial.hh"

using namespace cmpcache;

namespace
{

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.numThreads = 4;
    p.recordsPerThread = 2000;
    p.seed = 5;
    p.privateLines = 64;
    p.sharedLines = 32;
    p.kernelLines = 16;
    p.streamLines = 256;
    return p;
}

} // namespace

TEST(Workload, ProducesExactlyRequestedRecords)
{
    const auto p = tinyParams();
    WorkloadThreadSource src(p, 0);
    TraceRecord r;
    std::uint64_t n = 0;
    while (src.next(r))
        ++n;
    EXPECT_EQ(n, p.recordsPerThread);
}

TEST(Workload, DeterministicForSameSeed)
{
    const auto p = tinyParams();
    WorkloadThreadSource a(p, 1);
    WorkloadThreadSource b(p, 1);
    TraceRecord ra;
    TraceRecord rb;
    for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(a.next(ra));
        ASSERT_TRUE(b.next(rb));
        EXPECT_TRUE(ra == rb);
    }
}

TEST(Workload, ThreadsProduceDistinctStreams)
{
    const auto p = tinyParams();
    WorkloadThreadSource a(p, 0);
    WorkloadThreadSource b(p, 1);
    TraceRecord ra;
    TraceRecord rb;
    int same = 0;
    for (int i = 0; i < 200; ++i) {
        a.next(ra);
        b.next(rb);
        same += ra.addr == rb.addr;
    }
    EXPECT_LT(same, 100);
}

TEST(Workload, RecordsCarryCorrectTid)
{
    const auto p = tinyParams();
    WorkloadThreadSource src(p, 3);
    TraceRecord r;
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(src.next(r));
        EXPECT_EQ(r.tid, 3);
    }
}

TEST(Workload, AddressesAreLineAligned)
{
    const auto p = tinyParams();
    WorkloadThreadSource src(p, 0);
    TraceRecord r;
    while (src.next(r))
        EXPECT_EQ(r.addr % p.lineSize, 0u);
}

TEST(Workload, PrivateRegionsDisjointAcrossThreads)
{
    auto p = tinyParams();
    p.sharedFrac = 0.0;
    p.kernelFrac = 0.0;
    p.streamFrac = 0.0;
    std::set<Addr> t0;
    std::set<Addr> t1;
    WorkloadThreadSource a(p, 0);
    WorkloadThreadSource b(p, 1);
    TraceRecord r;
    while (a.next(r))
        t0.insert(r.addr);
    while (b.next(r))
        t1.insert(r.addr);
    for (const Addr addr : t0)
        EXPECT_EQ(t1.count(addr), 0u);
}

TEST(Workload, SharedRegionOverlapsAcrossThreads)
{
    auto p = tinyParams();
    p.sharedFrac = 1.0;
    p.kernelFrac = 0.0;
    p.streamFrac = 0.0;
    std::set<Addr> t0;
    std::set<Addr> t1;
    WorkloadThreadSource a(p, 0);
    WorkloadThreadSource b(p, 1);
    TraceRecord r;
    while (a.next(r))
        t0.insert(r.addr);
    while (b.next(r))
        t1.insert(r.addr);
    int overlap = 0;
    for (const Addr addr : t0)
        overlap += t1.count(addr) > 0;
    EXPECT_GT(overlap, 0);
}

TEST(Workload, StoreFractionRoughlyHonored)
{
    auto p = tinyParams();
    p.recordsPerThread = 20000;
    p.storeFrac = 0.4;
    p.kernelFrac = 0.0; // kernel skews the op mix
    WorkloadThreadSource src(p, 0);
    TraceRecord r;
    int stores = 0;
    int total = 0;
    while (src.next(r)) {
        stores += r.op == MemOp::Store;
        ++total;
    }
    EXPECT_NEAR(stores / static_cast<double>(total), 0.4, 0.05);
}

TEST(Workload, GapMeanRoughlyHonored)
{
    auto p = tinyParams();
    p.recordsPerThread = 50000;
    p.gapMean = 12.0;
    WorkloadThreadSource src(p, 0);
    TraceRecord r;
    double sum = 0.0;
    while (src.next(r))
        sum += r.gap;
    EXPECT_NEAR(sum / p.recordsPerThread, 12.0, 2.0);
}

TEST(Workload, ZeroFractionsMeanNoSuchRegion)
{
    auto p = tinyParams();
    p.sharedFrac = 0.0;
    p.kernelFrac = 0.0;
    p.streamFrac = 0.0;
    WorkloadThreadSource src(p, 0);
    TraceRecord r;
    while (src.next(r)) {
        EXPECT_GE(r.addr, region::PrivateBase);
        EXPECT_LT(r.addr, region::StreamBase);
    }
}

TEST(Workload, MaterializePreservesTotalCount)
{
    const auto p = tinyParams();
    SyntheticWorkload wl(p);
    const auto all = wl.materialize();
    EXPECT_EQ(all.size(), p.numThreads * p.recordsPerThread);
    std::map<ThreadId, std::uint64_t> per;
    for (const auto &r : all)
        ++per[r.tid];
    for (unsigned t = 0; t < p.numThreads; ++t)
        EXPECT_EQ(per[static_cast<ThreadId>(t)], p.recordsPerThread);
}

TEST(Workload, BundleHasOneSourcePerThread)
{
    const auto p = tinyParams();
    SyntheticWorkload wl(p);
    auto bundle = wl.makeBundle();
    EXPECT_EQ(bundle.numThreads(), p.numThreads);
}

TEST(Workload, SharedSamplersChangeNoRecord)
{
    // A workload builds its samplers once for every bundle; each
    // thread's stream, and the generated per-thread arrays, equal a
    // source that built its own.
    const auto p = workloads::byName("TP", 1500, 9);
    const SyntheticWorkload wl(p);
    const PerThreadRecords generated = wl.generate();
    ASSERT_EQ(generated.size(), p.numThreads);
    auto first = wl.makeBundle();
    auto second = wl.makeBundle();
    for (unsigned t = 0; t < p.numThreads; ++t) {
        WorkloadThreadSource own(p, static_cast<ThreadId>(t));
        ASSERT_EQ(generated[t].size(), p.recordsPerThread);
        TraceRecord want;
        TraceRecord a;
        TraceRecord b;
        for (const TraceRecord &g : generated[t]) {
            ASSERT_TRUE(own.next(want));
            ASSERT_TRUE(first.perThread[t]->next(a));
            ASSERT_TRUE(second.perThread[t]->next(b));
            ASSERT_TRUE(g == want && a == want && b == want);
        }
        EXPECT_FALSE(own.next(want));
    }
}

TEST(WorkloadCommercial, AllFourByName)
{
    for (const auto &name : workloads::allNames()) {
        const auto p = workloads::byName(name, 100, 1);
        EXPECT_EQ(p.name, name);
        EXPECT_EQ(p.recordsPerThread, 100u);
        EXPECT_EQ(p.numThreads, 16u);
    }
}

TEST(WorkloadCommercialDeath, UnknownNameIsFatal)
{
    EXPECT_TRUE(throwsNaming([] { workloads::byName("SPECjbb", 100, 1); },
                             "unknown workload"));
}

TEST(WorkloadCommercial, PressureOrderingMatchesPaper)
{
    // NotesBench is the least memory-bound (largest gaps); TP the
    // most.
    const auto tp = workloads::tp(1, 1);
    const auto nb = workloads::notesbench(1, 1);
    const auto cpw = workloads::cpw2(1, 1);
    EXPECT_GT(nb.gapMean, cpw.gapMean);
    EXPECT_GT(cpw.gapMean, tp.gapMean);
}

TEST(WorkloadCommercial, TpHasLargestFootprint)
{
    // TP's low L3 hit rate comes from the largest private footprint.
    const auto tp = workloads::tp(1, 1);
    const auto t2 = workloads::trade2(1, 1);
    EXPECT_GT(tp.privateLines, t2.privateLines);
}

// Phase behaviour: with phases enabled the same thread revisits
// addresses after they went cold (medium-distance reuse).
TEST(Workload, PhaseShiftingRevisitsOldLines)
{
    auto p = tinyParams();
    p.recordsPerThread = 30000;
    p.privateLines = 512;
    p.privateZipf = 1.0; // concentrated hot head that phases rotate
    p.phaseLength = 2000;
    p.phaseShift = 0.5;
    p.sharedFrac = p.kernelFrac = p.streamFrac = 0.0;
    WorkloadThreadSource src(p, 0);
    TraceRecord r;
    std::map<Addr, std::uint64_t> last_seen;
    std::uint64_t i = 0;
    std::uint64_t long_reuses = 0;
    while (src.next(r)) {
        const auto it = last_seen.find(r.addr);
        if (it != last_seen.end() && i - it->second > 3000)
            ++long_reuses;
        last_seen[r.addr] = i++;
    }
    EXPECT_GT(long_reuses, 20u);
}

TEST(Workload, PhaseShiftingStaysWithinFootprint)
{
    auto p = tinyParams();
    p.recordsPerThread = 20000;
    p.privateLines = 128;
    p.phaseLength = 1000;
    p.phaseShift = 0.5;
    p.sharedFrac = p.kernelFrac = p.streamFrac = 0.0;
    WorkloadThreadSource src(p, 0);
    TraceRecord r;
    std::set<Addr> lines;
    while (src.next(r))
        lines.insert(r.addr);
    // Phase rotation must not grow the private footprint.
    EXPECT_LE(lines.size(), 128u);
}

TEST(Workload, PrivateGroupSharing)
{
    auto p = tinyParams();
    p.privateGroupSize = 4;
    p.sharedFrac = p.kernelFrac = p.streamFrac = 0.0;
    // Threads 0..3 share one region; thread 4 uses another.
    std::set<Addr> t0;
    std::set<Addr> t3;
    std::set<Addr> t4;
    p.numThreads = 8;
    WorkloadThreadSource a(p, 0);
    WorkloadThreadSource b(p, 3);
    WorkloadThreadSource c(p, 4);
    TraceRecord r;
    while (a.next(r))
        t0.insert(r.addr);
    while (b.next(r))
        t3.insert(r.addr);
    while (c.next(r))
        t4.insert(r.addr);
    int overlap03 = 0;
    for (const Addr addr : t0)
        overlap03 += t3.count(addr) > 0;
    EXPECT_GT(overlap03, 0);
    for (const Addr addr : t4) {
        EXPECT_EQ(t0.count(addr), 0u);
        EXPECT_EQ(t3.count(addr), 0u);
    }
}
