#include "trace/workloads_stress.hh"

namespace cmpcache
{
namespace workloads
{

WorkloadParams
uniformStress(std::uint64_t records_per_thread, std::uint64_t seed,
              std::uint64_t footprint_lines)
{
    WorkloadParams p;
    p.name = "uniform";
    p.recordsPerThread = records_per_thread;
    p.seed = seed;
    p.privateLines = footprint_lines;
    p.privateZipf = 0.0; // flat: every line equally likely
    p.sharedFrac = 0.0;
    p.kernelFrac = 0.0;
    p.streamFrac = 0.0;
    p.storeFrac = 0.3;
    p.gapMean = 2.0;
    p.phaseLength = 0;
    return p;
}

WorkloadParams
streamingStress(std::uint64_t records_per_thread, std::uint64_t seed)
{
    WorkloadParams p;
    p.name = "streaming";
    p.recordsPerThread = records_per_thread;
    p.seed = seed;
    p.privateLines = 1; // effectively unused
    p.sharedFrac = 0.0;
    p.kernelFrac = 0.0;
    p.streamFrac = 1.0;
    p.streamLines = 1u << 22;
    p.storeFrac = 0.25;
    p.gapMean = 2.0;
    p.phaseLength = 0;
    return p;
}

WorkloadParams
pingpongStress(std::uint64_t records_per_thread, std::uint64_t seed,
               std::uint64_t shared_lines)
{
    WorkloadParams p;
    p.name = "pingpong";
    p.recordsPerThread = records_per_thread;
    p.seed = seed;
    p.privateLines = 1;
    p.sharedLines = shared_lines;
    p.sharedFrac = 1.0;
    p.sharedZipf = 0.2;
    p.sharedStoreFrac = 0.5; // heavy cross-thread invalidation
    p.kernelFrac = 0.0;
    p.streamFrac = 0.0;
    p.gapMean = 2.0;
    p.phaseLength = 0;
    return p;
}

WorkloadParams
thrashStress(std::uint64_t records_per_thread, std::uint64_t seed,
             std::uint64_t lines_per_thread)
{
    WorkloadParams p;
    p.name = "thrash";
    p.recordsPerThread = records_per_thread;
    p.seed = seed;
    // Default 5120 lines x 4 threads = 2.5 MB per 2 MB L2: constant
    // eviction of lines that come right back -- maximum write-back
    // redundancy once the L3 holds the set.
    p.privateLines = lines_per_thread;
    p.privateZipf = 0.1;
    p.sharedFrac = 0.0;
    p.kernelFrac = 0.0;
    p.streamFrac = 0.0;
    p.storeFrac = 0.1;
    p.gapMean = 2.0;
    p.phaseLength = 0;
    return p;
}

WorkloadParams
producerConsumerStress(std::uint64_t records_per_thread,
                       std::uint64_t seed,
                       std::uint64_t shared_lines)
{
    WorkloadParams p;
    p.name = "producer_consumer";
    p.recordsPerThread = records_per_thread;
    p.seed = seed;
    // All traffic in one modest shared region. The high (but not
    // total) store fraction keeps dirty owners handing lines to
    // readers: dirty interventions, Tagged suppliers and write backs
    // racing the consumers' demand refetches.
    p.privateLines = 1;
    p.sharedLines = shared_lines;
    p.sharedFrac = 1.0;
    p.sharedZipf = 0.4;
    p.sharedStoreFrac = 0.35;
    p.kernelFrac = 0.0;
    p.streamFrac = 0.0;
    p.gapMean = 2.0;
    p.phaseLength = 0;
    return p;
}

WorkloadParams
migratoryStress(std::uint64_t records_per_thread, std::uint64_t seed,
                std::uint64_t shared_lines)
{
    WorkloadParams p;
    p.name = "migratory";
    p.recordsPerThread = records_per_thread;
    p.seed = seed;
    // A tiny, almost write-only shared set: M ownership migrates from
    // thread to thread through back-to-back ReadExcl/Upgrade storms,
    // the pattern with the most supplier handoffs per line.
    p.privateLines = 1;
    p.sharedLines = shared_lines;
    p.sharedFrac = 1.0;
    p.sharedZipf = 0.3;
    p.sharedStoreFrac = 0.9;
    p.kernelFrac = 0.0;
    p.streamFrac = 0.0;
    p.gapMean = 2.0;
    p.phaseLength = 0;
    return p;
}

WorkloadParams
falseSharingStress(std::uint64_t records_per_thread,
                   std::uint64_t seed, std::uint64_t shared_lines)
{
    WorkloadParams p;
    p.name = "false_sharing";
    p.recordsPerThread = records_per_thread;
    p.seed = seed;
    // A handful of lines hammered by every thread with a load/store
    // mix: maximum concurrent transactions per line per combine
    // window, the densest interleaving space for the collector.
    p.privateLines = 1;
    p.sharedLines = shared_lines;
    p.sharedFrac = 1.0;
    p.sharedZipf = 0.0; // flat: all lines contended equally
    p.sharedStoreFrac = 0.5;
    p.kernelFrac = 0.0;
    p.streamFrac = 0.0;
    p.gapMean = 1.0;
    p.phaseLength = 0;
    return p;
}

} // namespace workloads
} // namespace cmpcache
