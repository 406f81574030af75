/**
 * @file
 * Streaming-vs-batch differential: the same trace fed through the
 * bounded-buffer streaming pipeline (`cmpcache serve` path) and
 * through the batch readTrace + splitByThread path must produce
 * byte-identical result JSON, sampled time series, and stats dumps.
 * This is the determinism contract in docs/serving.md: the demux
 * preserves per-thread subsequences, so streaming only changes memory
 * behavior, never results. Also covers the FIFO end-to-end path, a
 * failed FIFO stream whose writer goes idle, the skew-cap failure
 * mode, and sampled ingest gauges repeating byte for byte.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/time_series.hh"
#include "sim/result_json.hh"
#include "sim/simulation.hh"
#include "stats/sink.hh"
#include "trace/trace_io.hh"

using namespace cmpcache;

namespace
{

/** Deterministic 64-bit mixer (splitmix64). */
std::uint64_t
mix(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Deterministic interleaved trace: @p per records for each of
 * @p threads threads, round-robin, with enough address sharing across
 * threads to put coherence traffic on the ring.
 */
std::vector<TraceRecord>
makeTrace(unsigned threads, std::uint64_t per)
{
    std::vector<TraceRecord> recs;
    recs.reserve(threads * per);
    std::uint64_t s = 0x5eed;
    for (std::uint64_t i = 0; i < per; ++i) {
        for (unsigned t = 0; t < threads; ++t) {
            TraceRecord r;
            const auto v = mix(s);
            // ~1/4 of references hit a small shared region.
            r.addr = (v % 4 == 0) ? 0x10000 + (v % 32) * 64
                                  : 0x100000 * (t + 1) + (v % 512) * 64;
            r.gap = v % 7;
            r.tid = ThreadId(t);
            r.op = v % 3 == 0 ? MemOp::Store : MemOp::Load;
            recs.push_back(r);
        }
    }
    return recs;
}

std::string
serialize(const std::vector<TraceRecord> &recs, TraceFormat fmt)
{
    std::ostringstream os;
    writeTrace(os, recs, fmt);
    return os.str();
}

SystemConfig
baseConfig()
{
    SystemConfig cfg;
    cfg.topology = TopologyParams::flat(2, 2);
    cfg.l2.sizeBytes = 16 * 1024;
    cfg.l3.sizeBytes = 128 * 1024;
    // Streaming forces warmup off (one pass over the stream), so the
    // batch leg must run cold too for the outputs to be comparable.
    cfg.warmupPass = false;
    cfg.obs.sampleEvery = 256;
    // Only a streamed run has ingest gauges; leave them out so its
    // sampled series and stats dump compare with the batch run's.
    cfg.obs.ingestGauges = false;
    return cfg;
}

/** Everything we require to be byte-identical across paths. */
struct RunSnapshot
{
    std::string resultJson;
    std::string samplesJson;
    std::string statsJson;
};

RunSnapshot
snapshot(Simulation &sim)
{
    RunSnapshot snap;
    snap.resultJson = resultToJson(sim.run());
    std::ostringstream samples;
    writeSampleSeriesJson(samples, sim.samples());
    snap.samplesJson = samples.str();
    std::ostringstream stats;
    stats::writeJson(sim.system(), stats);
    snap.statsJson = stats.str();
    return snap;
}

RunSnapshot
runBatch(const SystemConfig &cfg, const std::string &data)
{
    std::istringstream is(data);
    auto recs = readTrace(is);
    EXPECT_TRUE(recs.ok()) << recs.error().message;
    Simulation sim(cfg, splitByThread(*recs, cfg.numThreads()),
                   "stream-diff");
    return snapshot(sim);
}

RunSnapshot
runStreamed(const SystemConfig &cfg, const std::string &data)
{
    Simulation sim(cfg, std::make_unique<std::istringstream>(data),
                   "stream-diff");
    return snapshot(sim);
}

void
expectStreamMatchesBatch(const SystemConfig &cfg, const std::string &data,
                         const std::string &label)
{
    const RunSnapshot batch = runBatch(cfg, data);
    const RunSnapshot stream = runStreamed(cfg, data);
    EXPECT_EQ(stream.resultJson, batch.resultJson)
        << label << ": result JSON differs";
    EXPECT_EQ(stream.samplesJson, batch.samplesJson)
        << label << ": sampled series differs";
    EXPECT_EQ(stream.statsJson, batch.statsJson)
        << label << ": stats dump differs";
}

} // namespace

TEST(StreamDifferential, BinaryStreamMatchesBatch)
{
    const auto recs = makeTrace(4, 400);
    expectStreamMatchesBatch(baseConfig(),
                             serialize(recs, TraceFormat::Binary),
                             "binary");
}

TEST(StreamDifferential, TextStreamMatchesBatch)
{
    const auto recs = makeTrace(4, 400);
    expectStreamMatchesBatch(baseConfig(),
                             serialize(recs, TraceFormat::Text),
                             "text");
}

TEST(StreamDifferential, SentinelCountStreamMatchesBatch)
{
    // The open-ended (record count = sentinel) framing a live
    // generator writes must replay identically to the counted form.
    const auto recs = makeTrace(4, 200);
    std::ostringstream os;
    writeStreamingTraceHeader(os);
    for (const auto &r : recs)
        appendTraceRecord(os, r);
    const SystemConfig cfg = baseConfig();
    const RunSnapshot counted =
        runBatch(cfg, serialize(recs, TraceFormat::Binary));
    const RunSnapshot open = runStreamed(cfg, os.str());
    EXPECT_EQ(open.resultJson, counted.resultJson);
    EXPECT_EQ(open.statsJson, counted.statsJson);
}

TEST(StreamDifferential, FifoEndToEnd)
{
    // The real serve transport: a writer process-alike pushes the
    // trace through a FIFO while the simulation consumes it.
    const std::string path =
        testing::TempDir() + "cmpcache_stream_diff_fifo";
    std::remove(path.c_str());
    if (mkfifo(path.c_str(), 0600) != 0)
        GTEST_SKIP() << "mkfifo unavailable here";

    const auto recs = makeTrace(4, 300);
    const std::string data = serialize(recs, TraceFormat::Binary);

    const SystemConfig cfg = baseConfig();
    const RunSnapshot batch = runBatch(cfg, data);

    // ofstream's open blocks until the reader below opens its end.
    std::thread writer([&] {
        std::ofstream os(path, std::ios::binary);
        os.write(data.data(), std::streamsize(data.size()));
    });
    auto in = std::make_unique<std::ifstream>(path, std::ios::binary);
    ASSERT_TRUE(in->is_open());
    Simulation sim(cfg, std::move(in), "stream-diff");
    const RunSnapshot fifo = snapshot(sim);
    writer.join();
    std::remove(path.c_str());

    EXPECT_EQ(fifo.resultJson, batch.resultJson);
    EXPECT_EQ(fifo.samplesJson, batch.samplesJson);
    EXPECT_EQ(fifo.statsJson, batch.statsJson);
}

TEST(StreamDifferential, FifoErrorDoesNotWaitForAnIdleWriter)
{
    // A producer that sends a bad record and then goes quiet with its
    // end still open: the run must fail on the bad record, and tearing
    // the Simulation down must not wait for the producer.
    const std::string path =
        testing::TempDir() + "cmpcache_stream_idle_fifo";
    std::remove(path.c_str());
    if (mkfifo(path.c_str(), 0600) != 0)
        GTEST_SKIP() << "mkfifo unavailable here";

    std::mutex mtx;
    std::condition_variable cv;
    bool released = false;
    std::thread writer([&] {
        std::ofstream os(path, std::ios::binary);
        os << "0 L 40 0\n99 L 80 0\n" << std::flush;
        std::unique_lock<std::mutex> lk(mtx);
        cv.wait_for(lk, std::chrono::seconds(10),
                    [&] { return released; });
    });
    auto in = std::make_unique<std::ifstream>(path, std::ios::binary);
    ASSERT_TRUE(in->is_open());

    std::chrono::steady_clock::time_point thrown;
    {
        Simulation sim(baseConfig(), std::move(in), "idle-writer");
        try {
            sim.run();
            ADD_FAILURE() << "the out-of-range thread did not surface";
        } catch (const SimException &e) {
            EXPECT_EQ(e.kind(), SimErrorKind::Trace);
            EXPECT_NE(e.error().message.find("thread 99"),
                      std::string::npos)
                << e.error().message;
        }
        thrown = std::chrono::steady_clock::now();
    }
    const auto teardown = std::chrono::steady_clock::now() - thrown;
    {
        std::lock_guard<std::mutex> lk(mtx);
        released = true;
    }
    cv.notify_all();
    writer.join();
    std::remove(path.c_str());
    EXPECT_LT(teardown, std::chrono::seconds(2))
        << "destroying the Simulation waited for the idle writer";
}

TEST(StreamDifferential, SampledIngestGaugesRepeatByteForByte)
{
    // The ingest gauges sample decode progress on the simulation
    // thread, so two runs over one stream sample identical series,
    // ingest.* channels included.
    SystemConfig cfg = baseConfig();
    cfg.obs.ingestGauges = true;
    const std::string data =
        serialize(makeTrace(4, 3000), TraceFormat::Binary);
    const RunSnapshot first = runStreamed(cfg, data);
    const RunSnapshot second = runStreamed(cfg, data);
    EXPECT_NE(first.samplesJson.find("ingest.ingested"),
              std::string::npos);
    EXPECT_EQ(first.samplesJson, second.samplesJson);
}

TEST(StreamDifferential, SkewCapOverflowIsAStructuredError)
{
    // All of thread 0's records arrive before any other thread's:
    // buffering them past stream.demux_capacity must fail with a
    // structured Trace error, not grow without bound.
    std::vector<TraceRecord> recs;
    for (std::uint64_t i = 0; i < 200; ++i)
        recs.push_back({0x100000 + i * 64, 1, 0, MemOp::Load});
    for (unsigned t = 1; t < 4; ++t)
        recs.push_back({0x200000ull * t, 1, ThreadId(t), MemOp::Load});

    SystemConfig cfg = baseConfig();
    cfg.obs.sampleEvery = 0;
    cfg.stream.demuxCapacity = 32;
    try {
        Simulation sim(cfg,
                       std::make_unique<std::istringstream>(
                           serialize(recs, TraceFormat::Binary)),
                       "skew");
        sim.run();
        FAIL() << "skew-cap overflow did not surface";
    } catch (const SimException &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Trace);
        EXPECT_NE(e.error().message.find("skew cap"),
                  std::string::npos)
            << e.error().message;
    }
}
