/** @file Tests for textual configuration parsing. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/config_io.hh"

using namespace cmpcache;

namespace
{

/** Apply and assert success (most tests exercise the happy path). */
void
mustApply(SystemConfig &cfg, const std::string &key,
          const std::string &value)
{
    const auto r = applyConfigOption(cfg, key, value);
    ASSERT_TRUE(r.ok()) << r.error().message;
}

} // namespace

TEST(ConfigIo, AppliesIntegerKeys)
{
    SystemConfig cfg;
    mustApply(cfg, "cpu.outstanding", "3");
    mustApply(cfg, "l2.size_bytes", "1048576");
    mustApply(cfg, "wbht.entries", "16384");
    EXPECT_EQ(cfg.cpu.maxOutstanding, 3u);
    EXPECT_EQ(cfg.l2.sizeBytes, 1048576u);
    EXPECT_EQ(cfg.policy.wbht.entries, 16384u);
}

TEST(ConfigIo, AppliesBooleanAndEnumKeys)
{
    SystemConfig cfg;
    mustApply(cfg, "policy", "snarf");
    mustApply(cfg, "use_retry_switch", "false");
    mustApply(cfg, "snarf_insert", "lru");
    mustApply(cfg, "warmup", "off");
    EXPECT_EQ(cfg.policy.policy, WbPolicy::Snarf);
    EXPECT_FALSE(cfg.policy.useRetrySwitch);
    EXPECT_EQ(cfg.policy.snarfInsert, InsertPos::Lru);
    EXPECT_FALSE(cfg.warmupPass);
}

TEST(ConfigIo, ParsesStreamWithCommentsAndBlanks)
{
    SystemConfig cfg;
    std::istringstream is(
        "# experiment\n"
        "\n"
        "policy = wbht   # the mechanism under test\n"
        "  cpu.outstanding=6\n"
        "retry.threshold = 100\n");
    const auto r = loadConfig(cfg, is);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(cfg.policy.policy, WbPolicy::Wbht);
    EXPECT_EQ(cfg.cpu.maxOutstanding, 6u);
    EXPECT_EQ(cfg.policy.retry.threshold, 100u);
}

TEST(ConfigIo, UnknownKeyReportsError)
{
    // These keys configured features that no longer exist: the
    // kernel's worker threads and fast path, the replacement-policy
    // zoo, open-loop arrival, drop-mode ingest and the dual and
    // hierarchical ring layouts. Files that still set them fail by
    // key name.
    for (const std::string key :
         {"l4.size", "run.threads", "run.fastpath", "obs.sched",
          "l2.repl", "l3.repl", "arrival.model", "arrival.rate",
          "arrival.burst_factor", "arrival.burst_period",
          "arrival.seed", "stream.overflow", "topology.layout",
          "topology.rings"}) {
        SystemConfig cfg;
        const auto r = applyConfigOption(cfg, key, "1");
        ASSERT_FALSE(r.ok()) << key;
        EXPECT_EQ(r.error().kind, SimErrorKind::Config);
        EXPECT_NE(r.error().message.find("unknown config key '" + key
                                         + "'"),
                  std::string::npos)
            << r.error().message;
    }
    // Removed keys that have a successor also name it.
    const std::pair<std::string, std::string> removed[] = {
        {"num_l2s", "topology.l2s"},
        {"threads_per_l2", "topology.cores and topology.smt"},
        {"ring.num_stops", "topology.l2s"},
        {"l3.slices", "topology.l3_slices"},
        {"l3.line_size", "l2.line_size"},
        {"topology.l2_kb_per_l2", "l2.size_bytes"},
        {"topology.l3_mb_per_slice", "l3.size_bytes"},
        {"stream.queue_capacity", "stream.demux_capacity"},
    };
    for (const auto &[key, replacement] : removed) {
        SystemConfig cfg;
        const auto r = applyConfigOption(cfg, key, "2");
        ASSERT_FALSE(r.ok()) << key;
        EXPECT_EQ(r.error().kind, SimErrorKind::Config);
        EXPECT_NE(r.error().message.find("unknown config key '" + key
                                         + "'; use " + replacement),
                  std::string::npos)
            << r.error().message;
    }
}

TEST(ConfigIo, EveryKeyRejectsOrKeepsTwoToThe32)
{
    // 2^32 overflows every 32-bit field: it must either fail naming
    // the key or be saved back unchanged, never wrap.
    for (const auto &key : configKeys()) {
        SystemConfig cfg;
        const auto r = applyConfigOption(cfg, key, "4294967296");
        if (!r.ok()) {
            EXPECT_NE(r.error().message.find("'" + key + "'"),
                      std::string::npos)
                << r.error().message;
            continue;
        }
        std::ostringstream os;
        saveConfig(cfg, os);
        EXPECT_NE(os.str().find("\n" + key + " = 4294967296\n"),
                  std::string::npos)
            << key << " did not save back as 4294967296";
    }
}

TEST(ConfigIo, MalformedValueReportsError)
{
    SystemConfig cfg;
    const auto r = applyConfigOption(cfg, "cpu.outstanding", "six");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, SimErrorKind::Config);
    EXPECT_NE(r.error().message.find("expects an integer from 0 to"),
              std::string::npos)
        << r.error().message;
}

TEST(ConfigIo, RejectsNegativeAndPartialIntegers)
{
    SystemConfig cfg;
    for (const auto *bad : {"-1", "12abc", "0x10", ""}) {
        const auto r = applyConfigOption(cfg, "cpu.outstanding", bad);
        EXPECT_FALSE(r.ok()) << "accepted '" << bad << "'";
    }
}

TEST(ConfigIo, MissingEqualsReportsLineNumber)
{
    SystemConfig cfg;
    std::istringstream is("cpu.outstanding 6\n");
    const auto r = loadConfig(cfg, is);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("no '='"), std::string::npos)
        << r.error().message;
    EXPECT_NE(r.error().message.find("line 1"), std::string::npos)
        << r.error().message;
}

TEST(ConfigIo, BadValueInStreamNamesLine)
{
    SystemConfig cfg;
    std::istringstream is(
        "policy = wbht\n"
        "cpu.outstanding = six\n");
    const auto r = loadConfig(cfg, is);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("line 2"), std::string::npos)
        << r.error().message;
}

TEST(ConfigIo, SaveLoadRoundTrip)
{
    SystemConfig a;
    a.policy = PolicyConfig::make(WbPolicy::Combined);
    a.policy.wbht.entries = 16384;
    a.policy.snarf.entries = 16384;
    a.cpu.maxOutstanding = 4;
    a.l3.wbQueueDepth = 12;
    a.policy.snarfInsert = InsertPos::Lru;
    a.enableWbReuseTracker = true;

    std::stringstream ss;
    saveConfig(a, ss);

    SystemConfig b;
    const auto r = loadConfig(b, ss);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(b.policy.policy, WbPolicy::Combined);
    EXPECT_EQ(b.policy.wbht.entries, 16384u);
    EXPECT_EQ(b.cpu.maxOutstanding, 4u);
    EXPECT_EQ(b.l3.wbQueueDepth, 12u);
    EXPECT_EQ(b.policy.snarfInsert, InsertPos::Lru);
    EXPECT_TRUE(b.enableWbReuseTracker);

    std::ostringstream again;
    saveConfig(b, again);
    EXPECT_EQ(again.str(), ss.str());
}

TEST(ConfigIo, KeyListNonEmptyAndSorted)
{
    const auto &keys = configKeys();
    EXPECT_GT(keys.size(), 30u);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(ConfigIo, FaultAndWatchdogKeysApply)
{
    SystemConfig cfg;
    mustApply(cfg, "fault.plan", "l3_retry:100:200");
    mustApply(cfg, "fault.seed", "7");
    mustApply(cfg, "watchdog.every", "5000");
    mustApply(cfg, "watchdog.stall_checks", "4");
    mustApply(cfg, "watchdog.max_txn_age", "100000");
    mustApply(cfg, "watchdog.wall_secs", "60");
    EXPECT_EQ(cfg.fault.plan, "l3_retry:100:200");
    EXPECT_EQ(cfg.fault.seed, 7u);
    EXPECT_TRUE(cfg.fault.enabled());
    EXPECT_EQ(cfg.watchdog.every, 5000u);
    EXPECT_EQ(cfg.watchdog.stallChecks, 4u);
    EXPECT_EQ(cfg.watchdog.maxTxnAge, 100000u);
    EXPECT_EQ(cfg.watchdog.wallSecs, 60u);
    EXPECT_TRUE(cfg.watchdog.enabled());
}

TEST(ConfigIo, MissingFileReportsIoError)
{
    SystemConfig cfg;
    const auto r = loadConfigFile(cfg, "/no/such/file.cfg");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, SimErrorKind::Io);
    EXPECT_NE(r.error().message.find("cannot open"),
              std::string::npos)
        << r.error().message;
}

TEST(ConfigIo, TopologyKeysApply)
{
    SystemConfig cfg;
    mustApply(cfg, "topology.cores", "64");
    mustApply(cfg, "topology.smt", "1");
    mustApply(cfg, "topology.l2s", "16");
    mustApply(cfg, "topology.l3_slices", "16");
    EXPECT_EQ(cfg.topology.cores, 64u);
    EXPECT_EQ(cfg.topology.smt, 1u);
    EXPECT_EQ(cfg.topology.l2s, 16u);
    EXPECT_EQ(cfg.topology.l3Slices, 16u);
    EXPECT_TRUE(cfg.validationErrors().empty());
}

TEST(ConfigIo, TopologyKeysRoundTripThroughSave)
{
    SystemConfig a;
    mustApply(a, "topology.cores", "32");
    mustApply(a, "topology.smt", "2");
    mustApply(a, "topology.l2s", "8");
    mustApply(a, "topology.l3_slices", "8");

    std::stringstream ss;
    saveConfig(a, ss);
    const std::string text = ss.str();
    // The topology.* keys are written; the removed shape keys never
    // are.
    EXPECT_NE(text.find("topology.cores = 32"), std::string::npos);
    EXPECT_EQ(text.find("num_l2s"), std::string::npos);
    EXPECT_EQ(text.find("threads_per_l2"), std::string::npos);
    EXPECT_EQ(text.find("ring.num_stops"), std::string::npos);
    EXPECT_EQ(text.find("l3.slices"), std::string::npos);

    SystemConfig b;
    const auto r = loadConfig(b, ss);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(b.topology.cores, 32u);
    EXPECT_EQ(b.topology.smt, 2u);
    EXPECT_EQ(b.topology.l2s, 8u);
    EXPECT_EQ(b.topology.l3Slices, 8u);
}

TEST(ConfigIo, ChangedKeysReproduceTheSavedConfig)
{
    SystemConfig a;
    mustApply(a, "policy", "combined");
    mustApply(a, "topology.l3_slices", "8");
    mustApply(a, "l3.access_latency", "40");
    mustApply(a, "fault.plan", "l3_retry:100:200");
    const auto changed = changedConfigKeys(a);
    ASSERT_EQ(changed.size(), 4u);
    EXPECT_EQ(changed[0].first, "fault.plan");
    EXPECT_EQ(changed[1].first, "l3.access_latency");

    SystemConfig b;
    for (const auto &[key, value] : changed)
        mustApply(b, key, value);
    std::ostringstream sa, sb;
    saveConfig(a, sa);
    saveConfig(b, sb);
    EXPECT_EQ(sa.str(), sb.str());
    EXPECT_TRUE(changedConfigKeys(SystemConfig{}).empty());
}

TEST(ConfigIo, TopologyLayoutRejectsUnknownNames)
{
    // The ring is the paper's single ring: topology.layout is gone,
    // so every value fails naming the key, the old default included.
    SystemConfig cfg;
    for (const auto *name : {"single_ring", "moebius", ""}) {
        const auto r = applyConfigOption(cfg, "topology.layout", name);
        ASSERT_FALSE(r.ok()) << "accepted '" << name << "'";
        EXPECT_NE(r.error().message.find(
                      "unknown config key 'topology.layout'"),
                  std::string::npos)
            << r.error().message;
    }
}

TEST(ConfigIo, LineSizeKeySetsBothLevels)
{
    SystemConfig cfg;
    mustApply(cfg, "l2.line_size", "64");
    EXPECT_EQ(cfg.l2.lineSize, 64u);
    EXPECT_EQ(cfg.l3.lineSize, 64u);
    EXPECT_TRUE(cfg.validationErrors().empty());
    // A rejected value leaves both levels alone.
    EXPECT_FALSE(
        applyConfigOption(cfg, "l2.line_size", "4294967296").ok());
    EXPECT_EQ(cfg.l3.lineSize, 64u);
}
