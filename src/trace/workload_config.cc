#include "trace/workload_config.hh"

#include <functional>
#include <map>

#include "common/cli.hh"
#include "common/logging.hh"

namespace cmpcache
{

namespace
{

std::uint64_t
toU64(const std::string &key, const std::string &v)
{
    const auto u = parseUnsigned(v);
    if (!u) {
        cmp_fatal("workload key '", key, "' expects an integer, "
                  "got '", v, "'");
    }
    return *u;
}

double
toDouble(const std::string &key, const std::string &v)
{
    try {
        return std::stod(v);
    } catch (...) {
        cmp_fatal("workload key '", key, "' expects a number, got '",
                  v, "'");
    }
}

using Setter = std::function<void(WorkloadParams &, const std::string &,
                                  const std::string &)>;

#define WL_U64(field)                                                   \
    [](WorkloadParams &p, const std::string &k,                         \
       const std::string &v) {                                          \
        p.field = static_cast<decltype(p.field)>(toU64(k, v));          \
    }

#define WL_DBL(field)                                                   \
    [](WorkloadParams &p, const std::string &k,                         \
       const std::string &v) { p.field = toDouble(k, v); }

const std::map<std::string, Setter> &
setters()
{
    static const std::map<std::string, Setter> s = {
        {"wl.name",
         [](WorkloadParams &p, const std::string &,
            const std::string &v) { p.name = v; }},
        {"wl.threads", WL_U64(numThreads)},
        {"wl.refs", WL_U64(recordsPerThread)},
        {"wl.seed", WL_U64(seed)},
        {"wl.line_size", WL_U64(lineSize)},
        {"wl.private_lines", WL_U64(privateLines)},
        {"wl.private_zipf", WL_DBL(privateZipf)},
        {"wl.private_group_size", WL_U64(privateGroupSize)},
        {"wl.shared_lines", WL_U64(sharedLines)},
        {"wl.shared_frac", WL_DBL(sharedFrac)},
        {"wl.shared_zipf", WL_DBL(sharedZipf)},
        {"wl.shared_store_frac", WL_DBL(sharedStoreFrac)},
        {"wl.kernel_lines", WL_U64(kernelLines)},
        {"wl.kernel_frac", WL_DBL(kernelFrac)},
        {"wl.stream_lines", WL_U64(streamLines)},
        {"wl.stream_frac", WL_DBL(streamFrac)},
        {"wl.store_frac", WL_DBL(storeFrac)},
        {"wl.gap_mean", WL_DBL(gapMean)},
        {"wl.phase_length", WL_U64(phaseLength)},
        {"wl.phase_shift", WL_DBL(phaseShift)},
    };
    return s;
}

#undef WL_U64
#undef WL_DBL

} // namespace

bool
isWorkloadKey(const std::string &key)
{
    return key.rfind("wl.", 0) == 0;
}

void
applyWorkloadOption(WorkloadParams &params, const std::string &key,
                    const std::string &value)
{
    const auto it = setters().find(key);
    if (it == setters().end())
        cmp_fatal("unknown workload key '", key, "'");
    it->second(params, key, value);
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

} // namespace cmpcache
