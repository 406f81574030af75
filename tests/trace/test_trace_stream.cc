/**
 * @file
 * Streaming-ingestion tests: the incremental TraceStreamParser on
 * non-seekable streams (the silent-empty-trace regression) and the
 * on-demand per-thread demux.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "trace/trace_io.hh"
#include "trace/trace_source.hh"

using namespace cmpcache;

namespace
{

/**
 * A streambuf that serves fixed content but refuses every seek, the
 * way a pipe or FIFO does. readTrace's format sniff used to
 * clear()+seekg(0) after reading the magic bytes; on a buffer like
 * this that made the text parser start from a failed stream and
 * silently return an empty trace.
 */
class UnseekableBuf : public std::streambuf
{
  public:
    explicit UnseekableBuf(std::string data) : data_(std::move(data))
    {
        setg(data_.data(), data_.data(), data_.data() + data_.size());
    }

  protected:
    pos_type
    seekoff(off_type, std::ios_base::seekdir,
            std::ios_base::openmode) override
    {
        return pos_type(off_type(-1));
    }

    pos_type
    seekpos(pos_type, std::ios_base::openmode) override
    {
        return pos_type(off_type(-1));
    }

  private:
    std::string data_;
};

std::vector<TraceRecord>
sampleRecords()
{
    return {
        {0x100, 0, 0, MemOp::Load},
        {0x200, 2, 1, MemOp::Store},
        {0x140, 3, 0, MemOp::Load},
        {0x4000, 1, 2, MemOp::IFetch},
    };
}

std::string
asText(const std::vector<TraceRecord> &recs)
{
    std::ostringstream os;
    writeTrace(os, recs, TraceFormat::Text);
    return os.str();
}

std::string
asBinary(const std::vector<TraceRecord> &recs)
{
    std::ostringstream os;
    writeTrace(os, recs, TraceFormat::Binary);
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------
// Non-seekable parsing (the silent-empty-trace bugfix)

TEST(TraceStream, TextParsesOnNonSeekableStream)
{
    const auto recs = sampleRecords();
    UnseekableBuf buf(asText(recs));
    std::istream is(&buf);
    const auto back = readTrace(is);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(*back, recs) << "non-seekable text input must parse "
                              "identically to a file, not come back "
                              "empty";
}

TEST(TraceStream, BinaryParsesOnNonSeekableStream)
{
    const auto recs = sampleRecords();
    UnseekableBuf buf(asBinary(recs));
    std::istream is(&buf);
    const auto back = readTrace(is);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(*back, recs);
}

TEST(TraceStream, ShortTextOnNonSeekableStream)
{
    // Fewer bytes than the 4-byte magic sniff: the carry-replay path
    // must still hand the text parser the whole input.
    UnseekableBuf buf("#c\n");
    std::istream is(&buf);
    const auto back = readTrace(is);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_TRUE(back->empty());

    UnseekableBuf buf2("0 L 40 0");
    std::istream is2(&buf2);
    const auto back2 = readTrace(is2);
    ASSERT_TRUE(back2.ok()) << back2.error().message;
    ASSERT_EQ(back2->size(), 1u);
    EXPECT_EQ((*back2)[0].addr, 0x40u);
}

TEST(TraceStream, MalformedTextOnNonSeekableStreamNamesTheLine)
{
    UnseekableBuf buf("0 L 40 0\n0 Q 80 0\n");
    std::istream is(&buf);
    const auto back = readTrace(is);
    ASSERT_FALSE(back.ok());
    EXPECT_NE(back.error().message.find("line 2"), std::string::npos)
        << back.error().message;
}

TEST(TraceStream, FailedStreamIsAnErrorNotAnEmptyTrace)
{
    std::istringstream is("0 L 40 0\n");
    is.setstate(std::ios::failbit);
    const auto back = readTrace(is);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.error().kind, SimErrorKind::Io);
    EXPECT_NE(back.error().message.find("failed state"),
              std::string::npos)
        << back.error().message;
}

TEST(TraceStream, ParserYieldsRecordsIncrementally)
{
    const auto recs = sampleRecords();
    std::istringstream is(asBinary(recs));
    TraceStreamParser p(is);
    TraceRecord r;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        ASSERT_EQ(p.next(r), TraceStreamParser::Status::Record) << i;
        EXPECT_EQ(r, recs[i]) << i;
        EXPECT_EQ(p.recordsRead(), i + 1);
    }
    EXPECT_EQ(p.next(r), TraceStreamParser::Status::Eof);
    // Eof is sticky.
    EXPECT_EQ(p.next(r), TraceStreamParser::Status::Eof);
    EXPECT_FALSE(p.failed());
}

TEST(TraceStream, ParserErrorIsSticky)
{
    std::istringstream is("0 L 40 0\n0 L 10 -1\n0 L 80 0\n");
    TraceStreamParser p(is);
    TraceRecord r;
    ASSERT_EQ(p.next(r), TraceStreamParser::Status::Record);
    ASSERT_EQ(p.next(r), TraceStreamParser::Status::Error);
    EXPECT_TRUE(p.failed());
    EXPECT_NE(p.error().message.find("line 2"), std::string::npos);
    EXPECT_EQ(p.next(r), TraceStreamParser::Status::Error);
}

// ---------------------------------------------------------------------
// Demux

TEST(StreamDemuxTest, PreservesPerThreadSubsequences)
{
    // Interleave three threads with distinct per-thread sequences.
    std::vector<TraceRecord> recs;
    for (std::uint64_t i = 0; i < 30; ++i)
        recs.push_back({i, 0, ThreadId(i % 3), MemOp::Load});
    StreamIngest demux(
        std::make_unique<std::istringstream>(asBinary(recs)),
        StreamParams{.demuxCapacity = 64}, 3);
    // Pull thread 2 fully first: everything else gets buffered.
    for (ThreadId t : {ThreadId(2), ThreadId(0), ThreadId(1)}) {
        TraceRecord r;
        std::uint64_t expect = t;
        while (demux.pull(t, r)) {
            EXPECT_EQ(r.addr, expect) << "thread " << t;
            EXPECT_EQ(r.tid, t);
            expect += 3;
        }
        EXPECT_EQ(expect, 30u + t) << "thread " << t;
    }
    EXPECT_EQ(demux.demuxBuffered(), 0u);
}

TEST(StreamDemuxTest, SkewCapIsAStructuredError)
{
    std::vector<TraceRecord> recs;
    for (std::uint64_t i = 0; i < 100; ++i)
        recs.push_back({i, 0, 0, MemOp::Load});
    StreamIngest demux(
        std::make_unique<std::istringstream>(asBinary(recs)),
        StreamParams{.demuxCapacity = 8}, 2);
    TraceRecord r;
    // Thread 1 never shows up; buffering thread 0 past the cap must
    // throw instead of growing without bound.
    try {
        demux.pull(1, r);
        FAIL() << "skew-cap overflow did not throw";
    } catch (const SimException &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Trace);
        EXPECT_NE(e.error().message.find("skew cap"),
                  std::string::npos)
            << e.error().message;
    }
    EXPECT_EQ(demux.demuxBuffered(), 8u);
}

TEST(StreamDemuxTest, OutOfRangeTidIsAStructuredError)
{
    StreamIngest demux(std::make_unique<std::istringstream>(asBinary(
                           {{0x40, 0, 7, MemOp::Load}})),
                       StreamParams{.demuxCapacity = 8}, 2);
    TraceRecord r;
    EXPECT_THROW(demux.pull(0, r), SimException);
}

TEST(StreamDemuxTest, ProducerErrorPropagatesToConsumers)
{
    // Line 3 fails to decode while thread 0 looks for its second
    // record, after thread 1's record was buffered.
    StreamIngest demux(std::make_unique<std::istringstream>(
                           "0 L 40 0\n1 L 80 0\n0 L 10 -1\n0 L c0 0\n"),
                       StreamParams{.demuxCapacity = 8}, 2);
    TraceRecord r;
    ASSERT_TRUE(demux.pull(0, r));
    EXPECT_EQ(r.addr, 0x40u);
    const auto expectDecodeError = [&](ThreadId t) {
        try {
            demux.pull(t, r);
            FAIL() << "decode error did not surface for thread " << t;
        } catch (const SimException &e) {
            EXPECT_EQ(e.kind(), SimErrorKind::Trace);
            EXPECT_NE(e.error().message.find("line 3"),
                      std::string::npos)
                << e.error().message;
        }
    };
    expectDecodeError(0);
    // The record decoded before the failure still arrives...
    ASSERT_TRUE(demux.pull(1, r));
    EXPECT_EQ(r.addr, 0x80u);
    // ...then every thread sees the same error, never a silent
    // end-of-trace or the record after the bad line.
    expectDecodeError(1);
    expectDecodeError(0);
}

// ---------------------------------------------------------------------
// StreamIngest end to end

TEST(StreamIngestTest, MatchesSplitByThread)
{
    std::vector<TraceRecord> recs;
    for (std::uint64_t i = 0; i < 200; ++i)
        recs.push_back(
            {0x40 * i, std::uint32_t(i % 5), ThreadId(i % 4),
             i % 2 ? MemOp::Store : MemOp::Load});

    StreamIngest ingest(
        std::make_unique<std::istringstream>(asBinary(recs)),
        StreamParams{}, 4);
    auto bundle = ingest.makeBundle();

    auto expected = splitByThread(recs, 4);
    for (unsigned t = 0; t < 4; ++t) {
        TraceRecord got, want;
        while (expected.perThread[t]->next(want)) {
            ASSERT_TRUE(bundle.perThread[t]->next(got))
                << "thread " << t << " ended early";
            EXPECT_EQ(got, want) << "thread " << t;
        }
        EXPECT_FALSE(bundle.perThread[t]->next(got))
            << "thread " << t << " has extra records";
    }
    EXPECT_EQ(ingest.recordsIngested(), recs.size());
}

TEST(StreamIngestTest, DecodeErrorSurfacesAsException)
{
    StreamParams params;
    StreamIngest ingest(std::make_unique<std::istringstream>(
                            "0 L 40 0\n0 L 10 -1\n"),
                        params, 1);
    auto bundle = ingest.makeBundle();
    TraceRecord r;
    ASSERT_TRUE(bundle.perThread[0]->next(r));
    EXPECT_THROW(bundle.perThread[0]->next(r), SimException);
}
