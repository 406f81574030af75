/**
 * @file
 * Parser-robustness corpus: hostile and malformed trace inputs must
 * come back as structured errors -- never a crash, an overflow, or an
 * unbounded allocation. Runs under ASan/UBSan via the sanitize label.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "trace/trace_io.hh"

using namespace cmpcache;

namespace
{

std::string
u32le(std::uint32_t v)
{
    std::string s;
    for (int i = 0; i < 4; ++i)
        s.push_back(static_cast<char>(v >> (8 * i)));
    return s;
}

std::string
u64le(std::uint64_t v)
{
    std::string s;
    for (int i = 0; i < 8; ++i)
        s.push_back(static_cast<char>(v >> (8 * i)));
    return s;
}

/** Binary header: magic + version + record count. */
std::string
binHeader(std::uint32_t version, std::uint64_t count)
{
    return "CMPT" + u32le(version) + u64le(count);
}

/** One packed binary record. */
std::string
binRecord(std::uint64_t addr, std::uint32_t gap, std::uint32_t meta)
{
    return u64le(addr) + u32le(gap) + u32le(meta);
}

Expected<std::vector<TraceRecord>>
parse(const std::string &data)
{
    std::stringstream ss(data);
    return readTrace(ss);
}

} // namespace

TEST(TraceRobustness, MalformedTextCorpusAllReportErrors)
{
    const std::vector<std::string> corpus = {
        "0 X 100 0\n",              // unknown op letter
        "0 LL 100 0\n",             // multi-char op
        "0 L zz 0\n",               // non-hex address
        "0 L 100zz 0\n",            // trailing address garbage
        "0 L 1ffffffffffffffff0 0\n", // address overflow
        "0 L 100\n",                // missing gap
        "99999 L 100 0\n",          // thread id out of range
        "0 L\n",                    // truncated line
        // Negative tokens: unsigned operator>> would silently wrap
        // these ("-1" gap becomes a ~4-billion-tick stall).
        "0 L 10 -1\n",              // negative gap
        "-1 L 10 0\n",              // negative thread id
        "0 L -10 0\n",              // negative address
        "0 L 10 +1\n",              // explicit sign on gap
        "0 L 10 4294967296\n",      // gap overflows u32
        "4294967296 L 10 0\n",      // tid overflows u32
        "0 L 1000 3 junk\n",        // a fifth field
        "0 L 0x 0\n",               // bare hex prefix
        "0 L 0x-10 0\n",            // sign after the hex prefix
    };
    for (const auto &bad : corpus) {
        const auto r = parse(bad);
        EXPECT_FALSE(r.ok()) << "accepted: " << bad;
        if (!r.ok()) {
            EXPECT_EQ(r.error().kind, SimErrorKind::Trace) << bad;
            EXPECT_NE(r.error().message.find("line 1"),
                      std::string::npos)
                << r.error().message;
        }
    }
}

TEST(TraceRobustness, TextAcceptsAnyWhitespaceCrlfAndHexPrefix)
{
    const auto r = parse("0\tL\t7f2a40\t3\r\n"
                         "1 S 0x10c0 0\r\n"
                         "  2  I  0XABC \t 7  # trailing comment\n"
                         "3 L FfFf 4294967295\n");
    ASSERT_TRUE(r.ok()) << r.error().message;
    const std::vector<TraceRecord> want = {
        {0x7f2a40, 3, 0, MemOp::Load},
        {0x10c0, 0, 1, MemOp::Store},
        {0xabc, 7, 2, MemOp::IFetch},
        {0xffff, 4294967295u, 3, MemOp::Load},
    };
    EXPECT_EQ(*r, want);
}

TEST(TraceRobustness, TextErrorsNameTheLine)
{
    const auto r = parse("0 L 40 0\n1 S 80 0\n0 Q 100 0\n");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("line 3"), std::string::npos)
        << r.error().message;
}

TEST(TraceRobustness, MalformedBinaryCorpusAllReportErrors)
{
    const std::vector<std::string> corpus = {
        // Bare magic: header cut off.
        "CMPT",
        // Version but no count.
        "CMPT" + u32le(1),
        // Unsupported version.
        binHeader(2, 0),
        // Header claims records that are not there.
        binHeader(1, 5),
        // Hostile count: ~2^64 records in a 28-byte file. (All-ones
        // is the open-ended streaming sentinel, so one below it is
        // the largest hostile count.)
        binHeader(1, 0xffff'ffff'ffff'fffeull) + binRecord(0, 0, 0),
        // Bad op encoding (3 > IFetch).
        binHeader(1, 1) + binRecord(0x40, 0, 3u << 16),
        // Reserved meta bits set.
        binHeader(1, 1) + binRecord(0x40, 0, 1u << 24),
        // One good record, then a truncated second one.
        binHeader(1, 2) + binRecord(0x40, 0, 0) + "\x01\x02",
    };
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const auto r = parse(corpus[i]);
        EXPECT_FALSE(r.ok()) << "accepted corpus entry " << i;
        if (!r.ok()) {
            EXPECT_EQ(r.error().kind, SimErrorKind::Trace) << i;
            EXPECT_FALSE(r.error().message.empty()) << i;
        }
    }
}

TEST(TraceRobustness, ValidatedFieldsSurviveRoundTrip)
{
    // Boundary values that ARE legal must keep parsing.
    std::vector<TraceRecord> recs = {
        {0xffff'ffff'ffff'ffffull, 0xffff'ffff, 0x7fff, MemOp::IFetch},
        {0, 0, 0, MemOp::Load},
    };
    std::stringstream ss;
    writeTrace(ss, recs, TraceFormat::Binary);
    const auto back = readTrace(ss);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(*back, recs);
}

TEST(TraceRobustness, GarbagePreambleFallsBackToTextError)
{
    // Junk that is neither magic nor valid text: structured error,
    // not a crash.
    const auto r = parse("\x7f\x45\x4c\x46 garbage follows\n");
    EXPECT_FALSE(r.ok());
}

TEST(TraceRobustness, EmptyInputIsAnEmptyTrace)
{
    const auto r = parse("");
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_TRUE(r->empty());
}
