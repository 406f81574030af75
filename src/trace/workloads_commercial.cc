#include "trace/workloads_commercial.hh"

#include "common/error.hh"
#include "common/logging.hh"
#include "trace/workloads_stress.hh"

namespace cmpcache
{
namespace workloads
{

// Sizing reference for the default (paper Table 3) hierarchy with
// 128 B lines: one L2 = 2 MB = 16 K lines shared by 4 threads;
// all L2s = 8 MB = 64 K lines; L3 = 16 MB = 128 K lines.

WorkloadParams
tp(std::uint64_t records_per_thread, std::uint64_t seed)
{
    WorkloadParams p;
    p.name = "TP";
    p.recordsPerThread = records_per_thread;
    p.seed = seed;
    // Large footprint: 16 threads x 16 K lines = 32 MB of private
    // data, twice the L3 -> low L3 hit rate (paper: 32.4%).
    p.privateLines = 28672;
    p.privateZipf = 0.45;
    // Heavy sharing: database locks/indices -> many interventions.
    p.sharedLines = 16384;
    p.sharedFrac = 0.32;
    p.sharedZipf = 0.3;
    p.kernelFrac = 0.06;
    p.streamLines = 1u << 20;
    p.streamFrac = 0.10;
    p.storeFrac = 0.45;
    p.sharedStoreFrac = 0.05;
    // Memory-bound at high outstanding-load counts: tight gaps.
    p.gapMean = 2.0;
    p.phaseLength = 30000;
    p.phaseShift = 0.2;
    return p;
}

WorkloadParams
cpw2(std::uint64_t records_per_thread, std::uint64_t seed)
{
    WorkloadParams p;
    p.name = "CPW2";
    p.recordsPerThread = records_per_thread;
    p.seed = seed;
    // ~20 MB total private footprint: a bit over the L3 -> ~50% L3
    // load hit rate.
    p.privateLines = 16384;
    p.privateZipf = 0.75;
    p.sharedLines = 12288;
    p.sharedFrac = 0.30;
    p.sharedZipf = 0.3;
    p.kernelFrac = 0.05;
    p.streamLines = 1u << 19;
    p.streamFrac = 0.03;
    p.storeFrac = 0.18;
    p.sharedStoreFrac = 0.06;
    // Tuned for ~70% CPU utilization: moderate gaps.
    p.gapMean = 10.0;
    p.phaseLength = 25000;
    p.phaseShift = 0.25;
    return p;
}

WorkloadParams
notesbench(std::uint64_t records_per_thread, std::uint64_t seed)
{
    WorkloadParams p;
    p.name = "NotesBench";
    p.recordsPerThread = records_per_thread;
    p.seed = seed;
    // ~16 MB footprint roughly matching the L3 -> ~70% L3 hit rate.
    p.privateLines = 9216;
    p.privateZipf = 0.9;
    p.sharedLines = 1024;
    p.sharedFrac = 0.08;
    p.sharedZipf = 0.6;
    p.kernelFrac = 0.08;
    p.streamLines = 1u << 18;
    p.streamFrac = 0.03;
    p.storeFrac = 0.15;
    // E-mail serving is compute/IO bound: long gaps, so the memory
    // system is nearly idle (the paper's WBHT switch never trips).
    p.gapMean = 40.0;
    p.phaseLength = 40000;
    p.phaseShift = 0.2;
    return p;
}

WorkloadParams
trade2(std::uint64_t records_per_thread, std::uint64_t seed)
{
    WorkloadParams p;
    p.name = "Trade2";
    p.recordsPerThread = records_per_thread;
    p.seed = seed;
    // Hot set ~1.5x the per-thread L2 share: constant L2 thrash with
    // almost everything landing in the L3 -> extreme write-back
    // redundancy (79%) and re-reference counts (>300x per line).
    // One J2EE server instance per core pair: the four threads of an
    // L2 share one heap. The per-L2 cycling set (28 K lines) thrashes
    // the 16 K-line L2 but fits both the L3 and a 32 K-entry WBHT --
    // the regime behind Trade2's extreme write-back redundancy and
    // its strong WBHT sensitivity (Figures 2 and 4).
    p.privateLines = 24576;
    p.privateZipf = 0.3;
    p.privateGroupSize = 4;
    p.sharedLines = 3072;
    p.sharedFrac = 0.08;
    p.sharedZipf = 0.5;
    p.kernelFrac = 0.05;
    p.streamLines = 1u << 18;
    p.streamFrac = 0.04;
    p.storeFrac = 0.18;
    p.gapMean = 1.0;
    p.phaseLength = 20000;
    p.phaseShift = 0.3;
    return p;
}

namespace
{

// In `cmpcache list` order; the stress patterns at their default
// shapes.
constexpr BuiltinWorkload kBuiltins[] = {
    {"commercial", "CPW2", cpw2},
    {"commercial", "NotesBench", notesbench},
    {"commercial", "TP", tp},
    {"commercial", "Trade2", trade2},
    {"stress", "uniform",
     [](auto n, auto seed) { return uniformStress(n, seed); }},
    {"stress", "streaming", streamingStress},
    {"stress", "pingpong",
     [](auto n, auto seed) { return pingpongStress(n, seed); }},
    {"stress", "thrash",
     [](auto n, auto seed) { return thrashStress(n, seed); }},
    {"stress", "producer_consumer",
     [](auto n, auto seed) { return producerConsumerStress(n, seed); }},
    {"stress", "migratory",
     [](auto n, auto seed) { return migratoryStress(n, seed); }},
    {"stress", "false_sharing",
     [](auto n, auto seed) { return falseSharingStress(n, seed); }},
};

} // namespace

std::span<const BuiltinWorkload>
builtinWorkloads()
{
    return kBuiltins;
}

WorkloadParams
byName(const std::string &name, std::uint64_t records_per_thread,
       std::uint64_t seed)
{
    for (const auto &w : kBuiltins)
        if (w.name == name)
            return w.make(records_per_thread, seed);
    std::string known;
    std::string_view family;
    for (const auto &w : kBuiltins) {
        if (w.family != family)
            known += cstr(family.empty() ? "" : "; ", w.family, ": ");
        else
            known += ", ";
        family = w.family;
        known += w.name;
    }
    throw SimException(SimErrorKind::Config,
                       cstr("unknown workload '", name, "' (", known, ")"));
}

} // namespace workloads
} // namespace cmpcache
