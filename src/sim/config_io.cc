#include "sim/config_io.hh"

#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <sstream>

#include "common/cli.hh"
#include "common/logging.hh"

namespace cmpcache
{

namespace
{

std::string
trim(const std::string &s)
{
    const auto b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

SimError
configError(const std::string &what)
{
    return SimError(SimErrorKind::Config, what);
}

/** @p v as config-file text: bools as true/false. */
template <typename T>
std::string
formatValue(const T &v)
{
    std::ostringstream os;
    os << std::boolalpha << v;
    return os.str();
}

/**
 * A key's parser and printer. set() gets the key as @p what
 * ("config key 'l2.assoc'") for its error messages.
 */
struct KeyHandler
{
    std::function<Expected<void>(SystemConfig &, const std::string &what,
                                 const std::string &)>
        set;
    std::function<std::string(const SystemConfig &)> get;
};

/** A key that sets one field under parseInto()'s rule for its type. */
#define FIELD_KEY(field)                                                \
    KeyHandler                                                          \
    {                                                                   \
        [](SystemConfig &c, const std::string &what,                    \
           const std::string &v) {                                      \
            return parseInto(c.field, what, v);                         \
        },                                                              \
            [](const SystemConfig &c) { return formatValue(c.field); }  \
    }

const std::map<std::string, KeyHandler> &
handlers()
{
    static const std::map<std::string, KeyHandler> h = {
        {"topology.cores", FIELD_KEY(topology.cores)},
        {"topology.smt", FIELD_KEY(topology.smt)},
        {"topology.l2s", FIELD_KEY(topology.l2s)},
        {"topology.l3_slices", FIELD_KEY(topology.l3Slices)},
        {"cpu.outstanding", FIELD_KEY(cpu.maxOutstanding)},
        {"cpu.blocked_retry", FIELD_KEY(cpu.blockedRetry)},
        {"l2.size_bytes", FIELD_KEY(l2.sizeBytes)},
        {"l2.assoc", FIELD_KEY(l2.assoc)},
        // The machine has one line size: set both levels.
        {"l2.line_size",
         KeyHandler{[](SystemConfig &c, const std::string &what,
                       const std::string &v) {
                        auto r = parseInto(c.l2.lineSize, what, v);
                        if (r.ok())
                            c.l3.lineSize = c.l2.lineSize;
                        return r;
                    },
                    [](const SystemConfig &c) {
                        return cstr(c.l2.lineSize);
                    }}},
        {"l2.slices", FIELD_KEY(l2.slices)},
        {"l2.hit_latency", FIELD_KEY(l2.hitLatency)},
        {"l2.supply_latency", FIELD_KEY(l2.supplyLatency)},
        {"l2.fill_latency", FIELD_KEY(l2.fillLatency)},
        {"l2.mshrs", FIELD_KEY(l2.mshrs)},
        {"l2.wbq_depth", FIELD_KEY(l2.wbqDepth)},
        {"l2.retry_backoff", FIELD_KEY(l2.retryBackoff)},
        {"l3.size_bytes", FIELD_KEY(l3.sizeBytes)},
        {"l3.assoc", FIELD_KEY(l3.assoc)},
        {"l3.access_latency", FIELD_KEY(l3.accessLatency)},
        {"l3.bank_occupancy", FIELD_KEY(l3.bankOccupancy)},
        {"l3.write_occupancy", FIELD_KEY(l3.writeOccupancy)},
        {"l3.squash_occupancy", FIELD_KEY(l3.squashOccupancy)},
        {"l3.wb_queue_depth", FIELD_KEY(l3.wbQueueDepth)},
        {"mem.access_latency", FIELD_KEY(mem.accessLatency)},
        {"mem.channel_occupancy", FIELD_KEY(mem.channelOccupancy)},
        {"obs.sample_every", FIELD_KEY(obs.sampleEvery)},
        {"obs.trace_capacity", FIELD_KEY(obs.traceCapacity)},
        {"obs.ingest", FIELD_KEY(obs.ingestGauges)},
        {"stream.demux_capacity", FIELD_KEY(stream.demuxCapacity)},
        {"ring.addr_slot_cycles", FIELD_KEY(ring.addrSlotCycles)},
        {"ring.snoop_latency", FIELD_KEY(ring.snoopLatency)},
        {"ring.hop_cycles", FIELD_KEY(ring.hopCycles)},
        {"ring.segment_occupancy", FIELD_KEY(ring.segmentOccupancy)},
        {"wbht.entries", FIELD_KEY(policy.wbht.entries)},
        {"wbht.assoc", FIELD_KEY(policy.wbht.assoc)},
        {"wbht.lines_per_entry", FIELD_KEY(policy.wbht.linesPerEntry)},
        {"snarf.entries", FIELD_KEY(policy.snarf.entries)},
        {"snarf.assoc", FIELD_KEY(policy.snarf.assoc)},
        {"snarf.buffers", FIELD_KEY(policy.snarfBuffers)},
        {"retry.window", FIELD_KEY(policy.retry.windowCycles)},
        {"retry.threshold", FIELD_KEY(policy.retry.threshold)},
        {"use_retry_switch", FIELD_KEY(policy.useRetrySwitch)},
        {"snarf_shared_victims", FIELD_KEY(policy.snarfSharedVictims)},
        {"wbht_informed_replacement",
         FIELD_KEY(policy.wbhtInformedReplacement)},
        {"warmup", FIELD_KEY(warmupPass)},
        {"reuse_tracker", FIELD_KEY(enableWbReuseTracker)},
        {"fault.plan", FIELD_KEY(fault.plan)},
        {"fault.seed", FIELD_KEY(fault.seed)},
        {"check.oracle", FIELD_KEY(check.oracle)},
        {"check.invariants_every", FIELD_KEY(check.invariantsEvery)},
        {"watchdog.every", FIELD_KEY(watchdog.every)},
        {"watchdog.stall_checks", FIELD_KEY(watchdog.stallChecks)},
        {"watchdog.max_txn_age", FIELD_KEY(watchdog.maxTxnAge)},
        {"watchdog.wall_secs", FIELD_KEY(watchdog.wallSecs)},
        {"policy",
         KeyHandler{[](SystemConfig &c, const std::string &what,
                       const std::string &v) -> Expected<void> {
                        const auto p = wbPolicyFromString(v);
                        if (!p) {
                            return configError(cstr(
                                what, " expects baseline|wbht|"
                                "wbht-global|snarf|combined, got '", v,
                                "'"));
                        }
                        c.policy.policy = *p;
                        return {};
                    },
                    [](const SystemConfig &c) {
                        return std::string(toString(c.policy.policy));
                    }}},
        {"snarf_insert",
         KeyHandler{[](SystemConfig &c, const std::string &what,
                       const std::string &v) -> Expected<void> {
                        if (v == "mru")
                            c.policy.snarfInsert = InsertPos::Mru;
                        else if (v == "lru")
                            c.policy.snarfInsert = InsertPos::Lru;
                        else
                            return configError(cstr(
                                what, " expects mru|lru, got '", v,
                                "'"));
                        return {};
                    },
                    [](const SystemConfig &c) {
                        return std::string(
                            c.policy.snarfInsert == InsertPos::Mru
                                ? "mru"
                                : "lru");
                    }}},
    };
    return h;
}

/**
 * Keys of earlier releases that have a successor, with what replaced
 * them; a config that still sets one fails naming its successor.
 */
const std::map<std::string, const char *> &
removedKeys()
{
    static const std::map<std::string, const char *> m = {
        {"num_l2s", "topology.l2s"},
        {"threads_per_l2", "topology.cores and topology.smt"},
        {"ring.num_stops", "topology.l2s (the stop count is derived)"},
        {"l3.slices", "topology.l3_slices"},
        {"l3.line_size", "l2.line_size (it sets both levels)"},
        {"topology.l2_kb_per_l2", "l2.size_bytes"},
        {"topology.l3_mb_per_slice",
         "l3.size_bytes (the total across slices)"},
        {"stream.queue_capacity",
         "stream.demux_capacity (the only stream buffer)"},
        {"obs.trace", "--trace-out (the only tracing switch)"},
    };
    return m;
}

#undef FIELD_KEY

} // namespace

Expected<void>
applyConfigOption(SystemConfig &cfg, const std::string &key,
                  const std::string &value)
{
    const auto it = handlers().find(key);
    if (it != handlers().end())
        return it->second.set(cfg, cstr("config key '", key, "'"), value);
    const auto removed = removedKeys().find(key);
    if (removed != removedKeys().end()) {
        return configError(cstr("unknown config key '", key, "'; use ",
                                removed->second));
    }
    return configError(cstr("unknown config key '", key, "'"));
}

Expected<void>
loadConfig(SystemConfig &cfg, std::istream &is)
{
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            return configError(cstr("config line ", lineno,
                                    " has no '=': '", line, "'"));
        }
        const auto r = applyConfigOption(cfg, trim(line.substr(0, eq)),
                                         trim(line.substr(eq + 1)));
        if (!r) {
            return SimError(r.error().kind,
                            cstr("config line ", lineno, ": ",
                                 r.error().message));
        }
    }
    return {};
}

Expected<void>
loadConfigFile(SystemConfig &cfg, const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        return SimError(SimErrorKind::Io,
                        cstr("cannot open config file '", path, "'"));
    }
    const auto r = loadConfig(cfg, is);
    if (!r) {
        return SimError(r.error().kind,
                        cstr(path, ": ", r.error().message));
    }
    return {};
}

void
saveConfig(const SystemConfig &cfg, std::ostream &os)
{
    os << "# cmpcache system configuration\n";
    for (const auto &[key, handler] : handlers())
        os << key << " = " << handler.get(cfg) << "\n";
}

std::vector<std::pair<std::string, std::string>>
changedConfigKeys(const SystemConfig &cfg)
{
    static const SystemConfig defaults;
    std::vector<std::pair<std::string, std::string>> changed;
    for (const auto &[key, handler] : handlers()) {
        std::string value = handler.get(cfg);
        if (value != handler.get(defaults))
            changed.emplace_back(key, std::move(value));
    }
    return changed;
}

const std::vector<std::string> &
configKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> k;
        for (const auto &[key, handler] : handlers())
            k.push_back(key);
        return k;
    }();
    return keys;
}

} // namespace cmpcache
