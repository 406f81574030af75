/**
 * @file
 * Trace file readers and writers, batch and streaming.
 *
 * Two interchange formats are supported (docs/serving.md):
 *  - text:   one record per line, "tid op hex-addr gap" split by any
 *            whitespace (CRLF line ends too), an optional 0x/0X
 *            address prefix, '#' comments
 *  - binary: "CMPT" magic + version + record count + packed
 *            little-endian records; a count of kStreamingRecordCount
 *            marks an open-ended stream that ends at EOF
 *
 * Files store records interleaved across threads; splitByThread()
 * turns a loaded vector into per-thread sources, StreamIngest
 * (trace_source.hh) does the same online, decoding on demand.
 *
 * Readers treat the input as hostile: header counts are checked
 * against the bytes actually present, every decoded field is
 * validated (including a leading '-' on numeric tokens, which
 * unsigned extraction would silently wrap), and malformed input
 * surfaces as a structured SimError (kind Trace or Io) instead of a
 * crash or process exit -- a sweep cell fed a bad trace fails alone
 * (see docs/robustness.md).
 *
 * TraceStreamParser is the one decode path: it never seeks, so it
 * works on pipes, FIFOs and sockets as well as regular files; the
 * batch readTrace() is a loop over it.
 */

#ifndef CMPCACHE_TRACE_TRACE_IO_HH
#define CMPCACHE_TRACE_TRACE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/error.hh"
#include "trace/trace.hh"

namespace cmpcache
{

/** On-disk trace encodings. */
enum class TraceFormat
{
    Text,
    Binary,
};

/**
 * Binary-header record count of an open-ended stream: the body ends
 * at EOF (which must fall on a record boundary) instead of after a
 * declared number of records. Used by live generators that cannot
 * know the length up front.
 */
constexpr std::uint64_t kStreamingRecordCount = ~0ull;

/** Write @p records to @p os in the given format. */
void writeTrace(std::ostream &os, const std::vector<TraceRecord> &records,
                TraceFormat fmt);

/** Write records to @p path; SimError (Io) on I/O failure. */
Expected<void> writeTraceFile(const std::string &path,
                              const std::vector<TraceRecord> &records,
                              TraceFormat fmt);

/**
 * Wire framing for live producers: write a binary trace header whose
 * count declares an open-ended stream (kStreamingRecordCount), then
 * append records one at a time. A consumer parses the result
 * incrementally with TraceStreamParser; closing the stream at a
 * record boundary is a clean end-of-trace.
 */
void writeStreamingTraceHeader(std::ostream &os);
void appendTraceRecord(std::ostream &os, const TraceRecord &r);

/**
 * Incremental trace decoder over any istream, seekable or not.
 *
 * The format is sniffed from the first four bytes; when they are not
 * the binary magic they are replayed into the text parser instead of
 * rewinding the stream, so pipes and FIFOs parse exactly like files.
 * A stream already in a failed state is a structured error, never an
 * empty-trace success.
 *
 *     TraceStreamParser p(is);
 *     TraceRecord r;
 *     while (p.next(r) == TraceStreamParser::Status::Record)
 *         consume(r);
 *     if (p.failed())
 *         report(p.error());
 */
class TraceStreamParser
{
  public:
    enum class Status
    {
        Record, ///< @p rec holds the next record
        Eof,    ///< clean end of trace (rec untouched)
        Error,  ///< malformed input; see error() (rec untouched)
    };

    explicit TraceStreamParser(std::istream &is) : is_(is) {}

    /** Decode the next record. Error and Eof are sticky. */
    Status next(TraceRecord &rec);

    bool failed() const { return failed_; }
    /** The failure; valid only after Status::Error. */
    const SimError &error() const { return err_; }

    /** Records decoded so far. */
    std::uint64_t recordsRead() const { return recordsRead_; }

  private:
    enum class Mode
    {
        Unsniffed,
        Text,
        Binary,
    };

    Status sniff();
    Status fail(SimError e);
    bool nextLine(std::string &line);
    Status nextText(TraceRecord &rec);
    Status nextBinary(TraceRecord &rec);

    std::istream &is_;
    Mode mode_ = Mode::Unsniffed;
    /** Sniffed bytes awaiting replay into the text parser. */
    std::string carry_;
    /** Text mode: the current line, reused so decoding does not
     * allocate per record. */
    std::string line_;
    std::size_t lineno_ = 0;
    /** Binary mode: declared record count (or the streaming
     * sentinel) and the index of the next record. */
    std::uint64_t binCount_ = 0;
    std::uint64_t binIndex_ = 0;
    std::uint64_t recordsRead_ = 0;
    bool done_ = false;
    bool failed_ = false;
    SimError err_;
};

/**
 * Read a whole trace from @p is. The format is auto-detected from the
 * leading bytes without seeking, so non-seekable streams (pipes,
 * FIFOs) are fully supported. Malformed input yields a SimError
 * naming the offending record or line.
 */
Expected<std::vector<TraceRecord>> readTrace(std::istream &is);

/** Read a trace from @p path; SimError (Io) if unreadable. */
Expected<std::vector<TraceRecord>> readTraceFile(
    const std::string &path);

} // namespace cmpcache

#endif // CMPCACHE_TRACE_TRACE_IO_HH
