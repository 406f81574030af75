#include "sim/system_config.hh"

#include <utility>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace cmpcache
{

namespace
{

/**
 * Largest WBHT granule, l2.line_size x wbht.lines_per_entry bytes: the
 * table aligns addresses to it as to a line, whose size it holds in
 * 32 bits.
 */
constexpr std::uint64_t kMaxWbhtGranule = std::uint64_t{1} << 31;

/**
 * Check one set-associative array (an L2, L3, WBHT or snarf table):
 * at most 64 ways (the victim scans' way masks), at most
 * kMaxArrayWays ways in all and a non-zero, power-of-two number of
 * sets (the array indexes sets with a mask).
 * @p size (key @p size_key) divides into sets of assoc ways of
 * @p way_size each; @p way_key names the way-size key, "" for a table
 * counted in entries. @p prefix is the array's key prefix.
 */
void
checkGeometry(std::vector<std::string> &errs, const char *prefix,
              const char *size_key, std::uint64_t size, unsigned assoc,
              const char *way_key, std::uint64_t way_size)
{
    if (assoc == 0) {
        errs.push_back(cstr(prefix, ".assoc must be positive"));
        return;
    }
    if (assoc > 64) {
        errs.push_back(cstr(prefix, ".assoc (", assoc,
                            ") exceeds the 64-way limit"));
        return;
    }
    if (way_size == 0 || !isPowerOf2(way_size)) {
        // Reported once by the line-size checks; keep the geometry
        // math safe regardless.
        return;
    }
    if (size / way_size > kMaxArrayWays) {
        errs.push_back(cstr(size_key, *way_key ? cstr(" / ", way_key) : "",
                            " (", size / way_size, ") exceeds the ",
                            kMaxArrayWays, "-way array limit"));
        return;
    }
    const std::string set_keys =
        *way_key ? cstr(prefix, ".assoc * ", way_key)
                 : cstr(prefix, ".assoc");
    const std::uint64_t set_size = assoc * way_size;
    if (size % set_size != 0) {
        errs.push_back(cstr(size_key, " (", size, ") must be a multiple of ",
                            set_keys, " (", set_size, ")"));
        return;
    }
    const std::uint64_t sets = size / set_size;
    if (!isPowerOf2(sets)) {
        errs.push_back(cstr(size_key, " / ",
                            *way_key ? cstr("(", set_keys, ")") : set_keys,
                            " must give a non-zero power-of-two set "
                            "count, got ", sets));
    }
}

} // namespace

std::vector<std::string>
SystemConfig::validationErrors() const
{
    std::vector<std::string> errs;

    // The machine shape validates as a unit.
    for (auto &e : validateTopology(topology))
        errs.push_back(std::move(e));

    // l2.line_size sets both levels; C++ callers can still split them.
    if (l2.lineSize != l3.lineSize) {
        errs.push_back(cstr("l2.line_size (", l2.lineSize,
                            ") and the L3 line size (", l3.lineSize,
                            ") differ"));
    }
    if (l2.lineSize == 0 || !isPowerOf2(l2.lineSize))
        errs.push_back("l2.line_size must be a power of two");

    checkGeometry(errs, "l2", "l2.size_bytes", l2.sizeBytes, l2.assoc,
                  "l2.line_size", l2.lineSize);
    checkGeometry(errs, "l3", "l3.size_bytes", l3.sizeBytes, l3.assoc,
                  "l2.line_size", l3.lineSize);

    if (l2.slices == 0)
        errs.push_back("l2.slices must be positive");
    if (l2.mshrs == 0)
        errs.push_back("l2.mshrs must be positive");
    if (l2.wbqDepth == 0)
        errs.push_back("l2.wbq_depth must be positive");
    for (const auto &[key, value] :
         {std::pair{"l2.mshrs", l2.mshrs},
          {"l2.wbq_depth", l2.wbqDepth},
          {"snarf.buffers", policy.snarfBuffers}}) {
        if (value > kMaxL2Buffers) {
            errs.push_back(cstr(key, " (", value,
                                ") exceeds the per-L2 limit of ",
                                kMaxL2Buffers));
        }
    }
    if (l3.wbQueueDepth == 0)
        errs.push_back("l3.wb_queue_depth must be positive");
    if (cpu.maxOutstanding == 0)
        errs.push_back("cpu.outstanding must be positive");

    // The tables are built only under the policies that use them.
    if (policy.usesWbht()) {
        // One WBHT entry covers a granule of lines_per_entry lines,
        // which the table aligns like a line of that size.
        const std::uint64_t granule =
            std::uint64_t{l2.lineSize} * policy.wbht.linesPerEntry;
        if (!isPowerOf2(policy.wbht.linesPerEntry)) {
            errs.push_back("wbht.lines_per_entry must be a power of two");
        } else if (granule > kMaxWbhtGranule) {
            errs.push_back(cstr("l2.line_size * wbht.lines_per_entry (",
                                granule, ") exceeds ", kMaxWbhtGranule));
        }
        checkGeometry(errs, "wbht", "wbht.entries", policy.wbht.entries,
                      policy.wbht.assoc, "", 1);
    }
    if (policy.usesSnarf()) {
        checkGeometry(errs, "snarf", "snarf.entries",
                      policy.snarf.entries, policy.snarf.assoc, "", 1);
    }
    if ((policy.usesWbht() || policy.useRetrySwitch)
        && policy.retry.windowCycles == 0) {
        errs.push_back("retry.window must be positive when the WBHT "
                       "or the retry switch is in use");
    }

    if (fault.enabled()) {
        auto plan = parseFaultPlan(fault.plan);
        if (!plan)
            errs.push_back(cstr("fault.plan: ", plan.error().message));
    }
    if (watchdog.enabled() && watchdog.stallChecks == 0)
        errs.push_back("watchdog.stall_checks must be positive");

    if (stream.demuxCapacity == 0)
        errs.push_back("stream.demux_capacity must be positive");

    return errs;
}

void
SystemConfig::validate() const
{
    const auto errs = validationErrors();
    if (errs.empty())
        return;
    std::string msg = "invalid configuration:";
    for (const auto &e : errs)
        msg += "\n  - " + e;
    throw SimException(SimError(SimErrorKind::Config, msg));
}

} // namespace cmpcache
