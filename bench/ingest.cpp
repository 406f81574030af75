/**
 * @file
 * Streaming-ingestion throughput microbenchmark.
 *
 * Measures the `cmpcache serve` front end in isolation from the
 * simulator, over an in-memory binary trace:
 *
 *   decode    TraceStreamParser alone -- the per-record decode floor
 *   pipeline  the full StreamIngest path (reader thread -> bounded
 *             queue -> demux -> per-thread sources), i.e. what a
 *             simulation actually pays per record on the serve path
 *   batch     readTrace + splitByThread, the materialize-everything
 *             baseline the streaming path replaces
 *
 * Usage: ingest [--records=N] [--queue=N] [--out=FILE]
 *
 * Emits cmpcache-ingest-bench-v1 JSON. Wall-clock rates are
 * machine-dependent; the pipeline/decode ratio (queue + demux
 * overhead) is the number meant for eyeballs. No committed baseline:
 * this bench informs tuning of stream.queue_capacity, it does not
 * gate CI.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"

namespace cmpcache
{
namespace
{

constexpr unsigned NumThreads = 16;

std::string
makeTrace(std::uint64_t records)
{
    std::ostringstream os;
    std::vector<TraceRecord> recs;
    recs.reserve(records);
    std::uint64_t x = 0x243f6a8885a308d3ull;
    for (std::uint64_t i = 0; i < records; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        recs.push_back({x & ~std::uint64_t(63), std::uint32_t(x % 7),
                        ThreadId(i % NumThreads),
                        x % 3 ? MemOp::Load : MemOp::Store});
    }
    writeTrace(os, recs, TraceFormat::Binary);
    return os.str();
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

double
benchDecode(const std::string &data)
{
    std::istringstream is(data);
    TraceStreamParser parser(is);
    const auto t0 = std::chrono::steady_clock::now();
    TraceRecord rec;
    std::uint64_t sink = 0;
    while (parser.next(rec) == TraceStreamParser::Status::Record)
        sink += rec.addr;
    const double dt = secondsSince(t0);
    if (parser.failed() || !sink)
        std::cerr << "decode bench: unexpected parse state\n";
    return double(parser.recordsRead()) / dt;
}

double
benchPipeline(const std::string &data, std::size_t queue_capacity)
{
    StreamParams params;
    params.queueCapacity = queue_capacity;
    const auto t0 = std::chrono::steady_clock::now();
    StreamIngest ingest(std::make_unique<std::istringstream>(data),
                        params, NumThreads);
    auto bundle = ingest.makeBundle();
    // Drain the way the serial kernel does: one consumer pulling
    // each thread's source in turn as its CPU events fire. (A
    // tight per-thread drain loop is not a real consumption
    // pattern -- an unfairly scheduled greedy puller would buffer
    // for everyone and trip the demux skew cap.)
    TraceRecord rec;
    bool live = true;
    while (live) {
        live = false;
        for (unsigned t = 0; t < NumThreads; ++t)
            live |= bundle.perThread[t]->next(rec);
    }
    const double dt = secondsSince(t0);
    return double(ingest.recordsIngested()) / dt;
}

double
benchBatch(const std::string &data)
{
    std::istringstream is(data);
    const auto t0 = std::chrono::steady_clock::now();
    const auto recs = readTrace(is);
    if (!recs.ok()) {
        std::cerr << "batch bench: " << recs.error().message << "\n";
        return 0;
    }
    auto bundle = splitByThread(*recs, NumThreads);
    std::uint64_t drained = 0;
    TraceRecord rec;
    for (unsigned t = 0; t < NumThreads; ++t)
        while (bundle.perThread[t]->next(rec))
            ++drained;
    const double dt = secondsSince(t0);
    return double(drained) / dt;
}

} // namespace
} // namespace cmpcache

int
main(int argc, char **argv)
{
    using namespace cmpcache;
    const CliArgs args(argc, argv);
    const auto records =
        args.getUnsigned("records", std::uint64_t{2'000'000});
    const auto queue = args.getUnsigned("queue", std::size_t{4096});

    const std::string data = makeTrace(records);
    const double decode = benchDecode(data);
    const double pipeline = benchPipeline(data, queue);
    const double batch = benchBatch(data);

    std::ostringstream json;
    json << "{\n"
         << "  \"schema\": \"cmpcache-ingest-bench-v1\",\n"
         << "  \"records\": " << records << ",\n"
         << "  \"queueCapacity\": " << queue << ",\n"
         << "  \"decodeRecsPerSec\": " << std::uint64_t(decode)
         << ",\n"
         << "  \"pipelineRecsPerSec\": " << std::uint64_t(pipeline)
         << ",\n"
         << "  \"batchRecsPerSec\": " << std::uint64_t(batch) << ",\n"
         << "  \"pipelineOverDecode\": " << pipeline / decode << "\n"
         << "}\n";
    std::cout << json.str();
    const auto out = args.getString("out", "");
    if (!out.empty()) {
        std::ofstream f(out);
        f << json.str();
    }
    return 0;
}
