#include "trace/workload_config.hh"

#include <algorithm>
#include <functional>
#include <map>

#include "common/cli.hh"
#include "common/logging.hh"

namespace cmpcache
{

namespace
{

/** Parses one value; @p what names the key for error messages. */
using Setter = std::function<Expected<void>(
    WorkloadParams &, const std::string &what, const std::string &)>;

#define WL_KEY(field)                                                   \
    [](WorkloadParams &p, const std::string &what,                      \
       const std::string &v) { return parseInto(p.field, what, v); }

const std::map<std::string, Setter> &
setters()
{
    static const std::map<std::string, Setter> s = {
        {"wl.private_lines", WL_KEY(privateLines)},
        {"wl.private_zipf", WL_KEY(privateZipf)},
        {"wl.private_group_size", WL_KEY(privateGroupSize)},
        {"wl.shared_lines", WL_KEY(sharedLines)},
        {"wl.shared_frac", WL_KEY(sharedFrac)},
        {"wl.shared_zipf", WL_KEY(sharedZipf)},
        {"wl.shared_store_frac", WL_KEY(sharedStoreFrac)},
        {"wl.kernel_lines", WL_KEY(kernelLines)},
        {"wl.kernel_frac", WL_KEY(kernelFrac)},
        {"wl.stream_lines", WL_KEY(streamLines)},
        {"wl.stream_frac", WL_KEY(streamFrac)},
        {"wl.store_frac", WL_KEY(storeFrac)},
        {"wl.gap_mean", WL_KEY(gapMean)},
        {"wl.phase_length", WL_KEY(phaseLength)},
        {"wl.phase_shift", WL_KEY(phaseShift)},
    };
    return s;
}

#undef WL_KEY

/**
 * Workload keys of earlier releases, with what sets that parameter
 * now; an override that still uses one fails naming its successor.
 */
const std::map<std::string, const char *> &
removedKeys()
{
    static const std::map<std::string, const char *> m = {
        {"wl.name", "the --workloads or --workload value"},
        {"wl.threads", "topology.cores and topology.smt"},
        {"wl.refs", "--refs"},
        {"wl.seed", "--seed"},
        {"wl.line_size", "l2.line_size"},
    };
    return m;
}

} // namespace

bool
isWorkloadKey(const std::string &key)
{
    return key.rfind("wl.", 0) == 0;
}

Expected<void>
applyWorkloadOption(WorkloadParams &params, const std::string &key,
                    const std::string &value)
{
    const auto it = setters().find(key);
    if (it != setters().end())
        return it->second(params, cstr("workload key '", key, "'"), value);
    const auto removed = removedKeys().find(key);
    if (removed != removedKeys().end()) {
        return SimError(SimErrorKind::Config,
                        cstr("unknown workload key '", key, "'; use ",
                             removed->second));
    }
    return SimError(SimErrorKind::Config,
                    cstr("unknown workload key '", key, "'"));
}

const std::vector<std::string> &
workloadConfigKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> k;
        for (const auto &[key, setter] : setters())
            k.push_back(key);
        return k;
    }();
    return keys;
}

std::vector<std::string>
workloadParamErrors(const WorkloadParams &p)
{
    std::vector<std::string> errs;
    // Written so that NaN fails every check.
    const auto fraction = [&errs](const char *key, double v) {
        if (!(v >= 0.0 && v <= 1.0))
            errs.push_back(cstr(key, " (", v, ") must lie in [0, 1]"));
    };
    const auto non_negative = [&errs](const char *key, double v) {
        if (!(v >= 0.0))
            errs.push_back(cstr(key, " (", v, ") must be at least 0"));
    };
    const auto positive = [&errs](const char *key, std::uint64_t v) {
        if (v == 0)
            errs.push_back(cstr(key, " (0) must be at least 1"));
    };

    fraction("wl.kernel_frac", p.kernelFrac);
    fraction("wl.shared_frac", p.sharedFrac);
    fraction("wl.stream_frac", p.streamFrac);
    fraction("wl.store_frac", p.storeFrac);
    fraction("wl.phase_shift", p.phaseShift);
    // The three regions split one uniform draw; the private region
    // takes what is left. The slack absorbs decimal rounding.
    const double regions = p.kernelFrac + p.sharedFrac + p.streamFrac;
    if (regions > 1.0 + 1e-9) {
        errs.push_back(cstr("wl.kernel_frac + wl.shared_frac + "
                            "wl.stream_frac (", regions,
                            ") must be at most 1"));
    }
    // Negative keeps its meaning "same as wl.store_frac".
    if (!(p.sharedStoreFrac <= 1.0)) {
        errs.push_back(cstr("wl.shared_store_frac (", p.sharedStoreFrac,
                            ") must lie in [0, 1], or be negative for "
                            "'same as wl.store_frac'"));
    }
    non_negative("wl.gap_mean", p.gapMean);
    non_negative("wl.private_zipf", p.privateZipf);
    non_negative("wl.shared_zipf", p.sharedZipf);
    positive("wl.private_lines", p.privateLines);
    positive("wl.shared_lines", p.sharedLines);
    positive("wl.kernel_lines", p.kernelLines);
    positive("wl.stream_lines", p.streamLines);
    positive("wl.private_group_size", p.privateGroupSize);
    // A region's footprint must fit the address span reserved for one
    // thread (region::PerThreadSpan): a bigger private or stream
    // region runs into its neighbour's lines and fakes sharing. The
    // same bound caps the shared and kernel regions' CDF tables.
    const std::uint64_t line_bytes = std::max(p.lineSize, 1u);
    const auto fits = [&errs, line_bytes](const char *key,
                                          std::uint64_t lines) {
        const std::uint64_t max_lines = region::PerThreadSpan / line_bytes;
        if (lines > max_lines) {
            errs.push_back(cstr(key, " (", lines, ") at ", line_bytes,
                                " B per line exceeds the ",
                                region::PerThreadSpan,
                                "-byte region limit: at most ",
                                max_lines, " lines"));
        }
    };
    fits("wl.private_lines", p.privateLines);
    fits("wl.shared_lines", p.sharedLines);
    fits("wl.kernel_lines", p.kernelLines);
    fits("wl.stream_lines", p.streamLines);
    return errs;
}

} // namespace cmpcache
