#include "sim/system_config.hh"

#include <utility>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace cmpcache
{

namespace
{

/**
 * Check a cache geometry: capacity must divide into a power-of-two
 * number of sets (the tag array indexes with a mask). @p prefix is
 * the config-key prefix ("l2" / "l3") used in messages.
 */
void
checkGeometry(std::vector<std::string> &errs, const char *prefix,
              std::uint64_t size_bytes, unsigned assoc,
              unsigned line_size)
{
    if (assoc == 0) {
        errs.push_back(cstr(prefix, ".assoc must be positive"));
        return;
    }
    if (line_size == 0 || !isPowerOf2(line_size)) {
        // Reported once for l2.line_size by the shared check; keep
        // the geometry math safe regardless.
        return;
    }
    const std::uint64_t way_bytes =
        static_cast<std::uint64_t>(assoc) * line_size;
    if (size_bytes % way_bytes != 0) {
        errs.push_back(cstr(prefix, ".size_bytes (", size_bytes,
                            ") must be a multiple of ", prefix,
                            ".assoc * l2.line_size (", way_bytes,
                            ")"));
        return;
    }
    const std::uint64_t sets = size_bytes / way_bytes;
    if (!isPowerOf2(sets)) {
        errs.push_back(cstr(prefix, ".size_bytes / (", prefix,
                            ".assoc * l2.line_size) must give a "
                            "power-of-two set count, got ", sets));
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

    checkGeometry(errs, "l2", l2.sizeBytes, l2.assoc, l2.lineSize);
    checkGeometry(errs, "l3", l3.sizeBytes, l3.assoc, l3.lineSize);

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

    if (policy.usesWbht()) {
        if (policy.wbht.assoc == 0)
            errs.push_back("wbht.assoc must be positive");
        else if (policy.wbht.entries % policy.wbht.assoc) {
            errs.push_back(cstr("wbht.entries (", policy.wbht.entries,
                                ") must divide into full wbht.assoc (",
                                policy.wbht.assoc, ") sets"));
        }
    }
    if (policy.usesSnarf()) {
        if (policy.snarf.assoc == 0)
            errs.push_back("snarf.assoc must be positive");
        else if (policy.snarf.entries % policy.snarf.assoc) {
            errs.push_back(cstr("snarf.entries (",
                                policy.snarf.entries,
                                ") must divide into full snarf.assoc (",
                                policy.snarf.assoc, ") sets"));
        }
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
