#include "trace/trace_io.hh"

#include <array>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <string_view>

#include "common/logging.hh"

namespace cmpcache
{

namespace
{

constexpr char BinaryMagic[4] = {'C', 'M', 'P', 'T'};
constexpr std::uint32_t BinaryVersion = 1;
/** Bytes per packed binary record: u64 addr + u32 gap + u32 meta. */
constexpr std::uint64_t BinaryRecordBytes = 16;

void
putU64(std::ostream &os, std::uint64_t v)
{
    std::array<unsigned char, 8> b;
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<unsigned char>(v >> (8 * i));
    os.write(reinterpret_cast<const char *>(b.data()), 8);
}

void
putU32(std::ostream &os, std::uint32_t v)
{
    std::array<unsigned char, 4> b;
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<unsigned char>(v >> (8 * i));
    os.write(reinterpret_cast<const char *>(b.data()), 4);
}

std::uint64_t
getU64(std::istream &is)
{
    std::array<unsigned char, 8> b{};
    is.read(reinterpret_cast<char *>(b.data()), 8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | b[i];
    return v;
}

std::uint32_t
getU32(std::istream &is)
{
    std::array<unsigned char, 4> b{};
    is.read(reinterpret_cast<char *>(b.data()), 4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | b[i];
    return v;
}

SimError
traceError(const std::string &what)
{
    return SimError(SimErrorKind::Trace, what);
}

/** Decode a text op character; -1 for anything unknown. */
int
opFromChar(char c)
{
    switch (c) {
      case 'L':
        return static_cast<int>(MemOp::Load);
      case 'S':
        return static_cast<int>(MemOp::Store);
      case 'I':
        return static_cast<int>(MemOp::IFetch);
      default:
        return -1;
    }
}

/**
 * Parse a decimal token that must fit a u32. Unlike unsigned
 * operator>>, a leading '-' (or any non-digit) is a hard failure
 * instead of two's-complement wraparound: "-1" must never become a
 * ~4-billion-tick gap or thread id.
 */
bool
parseU32Token(std::string_view tok, std::uint32_t &out)
{
    if (tok.empty() || tok.size() > 10)
        return false;
    std::uint64_t v = 0;
    for (const char c : tok) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (v > std::numeric_limits<std::uint32_t>::max())
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

/** The characters istream extraction skips between fields ("C" locale). */
bool
isFieldSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f'
           || c == '\r';
}

/** Pop the next whitespace-separated field off @p rest ("" at end). */
std::string_view
nextField(std::string_view &rest)
{
    std::size_t b = 0;
    while (b < rest.size() && isFieldSpace(rest[b]))
        ++b;
    std::size_t e = b;
    while (e < rest.size() && !isFieldSpace(rest[e]))
        ++e;
    const std::string_view field = rest.substr(b, e - b);
    rest.remove_prefix(e);
    return field;
}

/**
 * Parse a hex address the way strtoull(s, 16) reads a whole token:
 * an optional 0x/0X prefix, then hex digits only -- no sign, and
 * nothing over 64 bits.
 */
bool
parseHexAddr(std::string_view tok, std::uint64_t &out)
{
    if (tok.size() > 2 && tok[0] == '0' && (tok[1] == 'x' || tok[1] == 'X'))
        tok.remove_prefix(2);
    const char *end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, out, 16);
    return ec == std::errc{} && ptr == end;
}

/**
 * Parse one text trace line into @p rec: exactly four fields, with
 * anything after a '#' ignored. Allocates only to report an error.
 * @return Expected of "line carried a record" (false = blank or
 *         comment-only line), or the structured parse error.
 */
Expected<bool>
parseTextLine(std::string_view raw, std::size_t lineno,
              TraceRecord &rec)
{
    std::string_view rest = raw.substr(0, raw.find('#'));
    const std::string_view tid_s = nextField(rest);
    if (tid_s.empty())
        return false; // blank (or comment-only) line
    const std::string_view op = nextField(rest);
    const std::string_view addr_s = nextField(rest);
    const std::string_view gap_s = nextField(rest);
    std::uint32_t tid;
    if (gap_s.empty() || !nextField(rest).empty() || op.size() != 1
        || !parseU32Token(tid_s, tid)) {
        return traceError(cstr("malformed trace line ", lineno,
                               ": '", raw, "'"));
    }
    if (tid > std::numeric_limits<ThreadId>::max()) {
        return traceError(cstr("trace line ", lineno,
                               ": thread id ", tid,
                               " out of range"));
    }
    const int opv = opFromChar(op[0]);
    if (opv < 0) {
        return traceError(cstr("trace line ", lineno,
                               ": bad op character '", op[0],
                               "' (expected L, S or I)"));
    }
    rec.tid = static_cast<ThreadId>(tid);
    rec.op = static_cast<MemOp>(opv);
    if (!parseHexAddr(addr_s, rec.addr)) {
        return traceError(cstr("trace line ", lineno,
                               ": bad hex address '", addr_s,
                               "'"));
    }
    std::uint32_t gap;
    if (!parseU32Token(gap_s, gap)) {
        return traceError(cstr("malformed trace line ", lineno,
                               ": '", raw, "'"));
    }
    rec.gap = gap;
    return true;
}

} // namespace

void
writeTrace(std::ostream &os, const std::vector<TraceRecord> &records,
           TraceFormat fmt)
{
    if (fmt == TraceFormat::Text) {
        os << "# cmpcache trace v1: tid op addr(hex) gap\n";
        for (const auto &r : records) {
            os << r.tid << " " << toString(r.op) << " " << std::hex
               << r.addr << std::dec << " " << r.gap << "\n";
        }
        return;
    }
    os.write(BinaryMagic, 4);
    putU32(os, BinaryVersion);
    putU64(os, records.size());
    for (const auto &r : records)
        appendTraceRecord(os, r);
}

void
writeStreamingTraceHeader(std::ostream &os)
{
    os.write(BinaryMagic, 4);
    putU32(os, BinaryVersion);
    putU64(os, kStreamingRecordCount);
}

void
appendTraceRecord(std::ostream &os, const TraceRecord &r)
{
    putU64(os, r.addr);
    putU32(os, r.gap);
    const std::uint32_t meta =
        static_cast<std::uint32_t>(r.tid)
        | (static_cast<std::uint32_t>(r.op) << 16);
    putU32(os, meta);
}

Expected<void>
writeTraceFile(const std::string &path,
               const std::vector<TraceRecord> &records, TraceFormat fmt)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        return SimError(SimErrorKind::Io,
                        cstr("cannot open trace file '", path,
                             "' for writing"));
    }
    writeTrace(os, records, fmt);
    if (!os) {
        return SimError(SimErrorKind::Io,
                        cstr("error writing trace file '", path, "'"));
    }
    return {};
}

TraceStreamParser::Status
TraceStreamParser::fail(SimError e)
{
    err_ = std::move(e);
    failed_ = true;
    done_ = true;
    return Status::Error;
}

TraceStreamParser::Status
TraceStreamParser::sniff()
{
    if (is_.fail()) {
        return fail(SimError(
            SimErrorKind::Io,
            "trace stream is in a failed state before parsing"));
    }
    char magic[4] = {0, 0, 0, 0};
    is_.read(magic, 4);
    const auto got = static_cast<std::size_t>(is_.gcount());
    if (got == 4 && std::memcmp(magic, BinaryMagic, 4) == 0) {
        mode_ = Mode::Binary;
        const std::uint32_t version = getU32(is_);
        if (!is_)
            return fail(traceError("truncated binary trace header"));
        if (version != BinaryVersion) {
            return fail(traceError(cstr(
                "unsupported binary trace version ", version)));
        }
        binCount_ = getU64(is_);
        if (!is_)
            return fail(traceError("truncated binary trace header"));

        // The header's count is attacker-controlled: check it against
        // the bytes actually present when the stream can tell us
        // (pipes and FIFOs cannot seek; their per-record reads catch
        // truncation instead). The streaming sentinel declares no
        // length at all.
        if (binCount_ != kStreamingRecordCount) {
            const auto pos = is_.tellg();
            if (pos != std::istream::pos_type(-1)) {
                is_.seekg(0, std::ios::end);
                const auto end = is_.tellg();
                is_.seekg(pos);
                if (end != std::istream::pos_type(-1) && end >= pos) {
                    const auto remaining =
                        static_cast<std::uint64_t>(end - pos);
                    const std::uint64_t max_records =
                        remaining / BinaryRecordBytes;
                    if (binCount_ > max_records) {
                        return fail(traceError(cstr(
                            "binary trace header claims ", binCount_,
                            " records but only ", remaining,
                            " bytes (", max_records,
                            " records) remain")));
                    }
                }
            }
        }
        return Status::Record; // caller proceeds to nextBinary
    }
    // Not binary: the sniffed bytes are the head of a text trace.
    // Buffer them for replay instead of seeking, so non-seekable
    // streams (pipes, FIFOs) parse identically to files.
    mode_ = Mode::Text;
    carry_.assign(magic, got);
    return Status::Record; // caller proceeds to nextText
}

bool
TraceStreamParser::nextLine(std::string &line)
{
    if (!carry_.empty()) {
        const auto nl = carry_.find('\n');
        if (nl != std::string::npos) {
            line.assign(carry_, 0, nl);
            carry_.erase(0, nl + 1);
            return true;
        }
        // The carry is an unterminated line head: splice it onto
        // whatever the stream yields next.
        line = carry_;
        carry_.clear();
        std::string rest;
        if (std::getline(is_, rest))
            line += rest;
        return true;
    }
    return static_cast<bool>(std::getline(is_, line));
}

TraceStreamParser::Status
TraceStreamParser::nextText(TraceRecord &rec)
{
    while (nextLine(line_)) {
        ++lineno_;
        TraceRecord r;
        auto parsed = parseTextLine(line_, lineno_, r);
        if (!parsed)
            return fail(std::move(parsed.error()));
        if (!*parsed)
            continue; // blank or comment-only line
        rec = r;
        ++recordsRead_;
        return Status::Record;
    }
    done_ = true;
    return Status::Eof;
}

TraceStreamParser::Status
TraceStreamParser::nextBinary(TraceRecord &rec)
{
    const bool open_ended = binCount_ == kStreamingRecordCount;
    if (!open_ended && binIndex_ >= binCount_) {
        done_ = true;
        return Status::Eof;
    }
    std::array<unsigned char, BinaryRecordBytes> b{};
    is_.read(reinterpret_cast<char *>(b.data()), BinaryRecordBytes);
    const auto got = static_cast<std::uint64_t>(is_.gcount());
    if (got == 0 && open_ended) {
        // EOF on a record boundary: a clean end of stream.
        done_ = true;
        return Status::Eof;
    }
    if (got != BinaryRecordBytes) {
        if (open_ended) {
            return fail(traceError(cstr(
                "truncated binary trace (record ", binIndex_,
                " of open-ended stream)")));
        }
        return fail(traceError(cstr("truncated binary trace (record ",
                                    binIndex_, " of ", binCount_,
                                    ")")));
    }
    std::uint64_t addr = 0;
    for (int i = 7; i >= 0; --i)
        addr = (addr << 8) | b[i];
    std::uint32_t gap = 0;
    for (int i = 11; i >= 8; --i)
        gap = (gap << 8) | b[i];
    std::uint32_t meta = 0;
    for (int i = 15; i >= 12; --i)
        meta = (meta << 8) | b[i];

    const std::uint32_t op = (meta >> 16) & 0xff;
    if (op > static_cast<std::uint32_t>(MemOp::IFetch)) {
        return fail(traceError(cstr("binary trace record ", binIndex_,
                                    ": bad op encoding ", op)));
    }
    if ((meta >> 24) != 0) {
        return fail(traceError(cstr("binary trace record ", binIndex_,
                                    ": reserved meta bits set (0x",
                                    std::hex, meta, std::dec, ")")));
    }
    rec.addr = addr;
    rec.gap = gap;
    rec.tid = static_cast<ThreadId>(meta & 0xffff);
    rec.op = static_cast<MemOp>(op);
    ++binIndex_;
    ++recordsRead_;
    return Status::Record;
}

TraceStreamParser::Status
TraceStreamParser::next(TraceRecord &rec)
{
    if (done_)
        return failed_ ? Status::Error : Status::Eof;
    if (mode_ == Mode::Unsniffed) {
        const Status s = sniff();
        if (s == Status::Error)
            return s;
    }
    return mode_ == Mode::Binary ? nextBinary(rec) : nextText(rec);
}

Expected<std::vector<TraceRecord>>
readTrace(std::istream &is)
{
    TraceStreamParser parser(is);
    std::vector<TraceRecord> out;
    TraceRecord r;
    for (;;) {
        switch (parser.next(r)) {
          case TraceStreamParser::Status::Record:
            out.push_back(r);
            break;
          case TraceStreamParser::Status::Eof:
            return out;
          case TraceStreamParser::Status::Error:
            return parser.error();
        }
    }
}

Expected<std::vector<TraceRecord>>
readTraceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        return SimError(SimErrorKind::Io,
                        cstr("cannot open trace file '", path, "'"));
    }
    return readTrace(is);
}

} // namespace cmpcache
