/**
 * @file
 * Per-cell failure isolation in sweeps: one poisoned grid cell must
 * report a structured error while every other cell completes, and the
 * results file must carry the error cells whole. Also the progress
 * lines' time format.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/config_io.hh"
#include "sim/result_json.hh"
#include "sim/sweep.hh"

using namespace cmpcache;

namespace
{

/**
 * A grid whose Combined cell is poisoned: expand() halves the WBHT
 * entries for Combined (2 -> 1), which no longer divides into full
 * 2-way sets, so that cell -- and only that cell -- fails config
 * validation inside the worker. The baseline cell never touches the
 * WBHT, so the base config itself stays valid.
 */
SweepSpec
poisonedSpec()
{
    SweepSpec spec;
    spec.workloads = {"thrash"};
    spec.policies = {WbPolicy::Baseline, WbPolicy::Combined};
    spec.outstanding = {4};
    spec.recordsPerThread = 500;
    spec.base.policy.wbht.entries = 2;
    spec.base.policy.wbht.assoc = 2;
    return spec;
}

/** The words of a POSIX shell line (single quotes group; '\\'' is a
 * literal quote), enough to read back a rerun command. */
std::vector<std::string>
shellWords(const std::string &line)
{
    std::vector<std::string> words;
    std::string word;
    bool in_word = false;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '\'')
                quoted = false;
            else
                word += c;
        } else if (c == '\'') {
            quoted = in_word = true;
        } else if (c == '\\' && i + 1 < line.size()) {
            word += line[++i];
            in_word = true;
        } else if (c == ' ') {
            if (in_word)
                words.push_back(word);
            word.clear();
            in_word = false;
        } else {
            word += c;
            in_word = true;
        }
    }
    if (in_word)
        words.push_back(word);
    return words;
}

} // namespace

TEST(SweepErrors, PoisonedCellFailsAloneAndOthersComplete)
{
    const auto results = runSweep(poisonedSpec(), 2);
    ASSERT_EQ(results.size(), 2u);

    EXPECT_TRUE(results[0].ok);
    EXPECT_GT(results[0].result.execTime, 0u);

    EXPECT_FALSE(results[1].ok);
    EXPECT_EQ(results[1].errorKind, "config");
    EXPECT_NE(results[1].error.find("wbht.entries"),
              std::string::npos)
        << results[1].error;
    // Identity survives so reports stay aligned with the grid.
    EXPECT_EQ(results[1].result.workload, "thrash");
    EXPECT_EQ(results[1].result.policy, "combined");
    EXPECT_EQ(results[1].result.maxOutstanding, 4u);
    EXPECT_EQ(results[1].result.execTime, 0u);
}

TEST(SweepErrors, ErrorCellsRoundTripThroughResultsJson)
{
    const auto spec = poisonedSpec();
    const auto results = runSweep(spec, 2);
    std::ostringstream os;
    writeSweepResultsJson(os, spec, results);
    const std::string text = os.str();

    // Every cell is written whole, in job order: the ok one exactly
    // as the result writer prints it, the failed one with its error
    // and the identity its rerun line needs.
    std::ostringstream ok_cell;
    writeResultJson(ok_cell, results[0].result, 4);
    const SweepJobResult &bad = results[1];
    ASSERT_NE(bad.error.find("wbht.entries"), std::string::npos);
    const std::string bad_cell =
        "    {\n"
        "      \"schemaVersion\": 2,\n"
        "      \"status\": \"error\",\n"
        "      \"errorKind\": \"config\",\n"
        "      \"error\": \"" + jsonEscape(bad.error) + "\",\n"
        "      \"workload\": \"thrash\",\n"
        "      \"policy\": \"combined\",\n"
        "      \"maxOutstanding\": 4,\n"
        "      \"seed\": 1,\n"
        "      \"topology\": \"cores=8 smt=2 l2s=4 l3_slices=4\",\n"
        "      \"faultPlan\": \"\",\n"
        "      \"faultSeed\": " + std::to_string(bad.faultSeed) + ",\n"
        "      \"rerun\": \"" + jsonEscape(bad.rerun) + "\"\n"
        "    }";
    EXPECT_NE(text.find("  \"results\": [\n" + ok_cell.str() + ",\n"
                        + bad_cell + "\n  ]\n}\n"),
              std::string::npos)
        << text;
}

TEST(SweepErrors, ErrorCellsAreThreadCountInvariant)
{
    const auto spec = poisonedSpec();
    const auto serialize = [&](unsigned threads) {
        std::ostringstream os;
        writeSweepResultsJson(os, spec, runSweep(spec, threads));
        return os.str();
    };
    EXPECT_EQ(serialize(1), serialize(4));
}

TEST(SweepErrors, WatchdogTripIsIsolatedPerCell)
{
    // A NACK-everything plan livelocks every transaction; the
    // watchdog turns the wedged cell into an error result instead of
    // hanging the whole sweep.
    SweepSpec spec;
    spec.workloads = {"thrash"};
    spec.policies = {WbPolicy::Baseline};
    spec.outstanding = {4};
    spec.recordsPerThread = 500;
    spec.base.fault.plan = "nack:0:end";
    // Warmup off so misses reach the ring and actually get NACKed.
    spec.base.warmupPass = false;
    spec.base.watchdog.every = 20000;
    spec.base.watchdog.stallChecks = 3;
    spec.base.maxTicks = 50ull * 1000 * 1000;

    const auto results = runSweep(spec, 1);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].errorKind, "watchdog");
    EXPECT_NE(results[0].error.find("no forward progress"),
              std::string::npos)
        << results[0].error;
}

TEST(SweepErrors, AllOkFilesCarryNoStatusFields)
{
    SweepSpec spec;
    spec.workloads = {"thrash"};
    spec.policies = {WbPolicy::Baseline};
    spec.outstanding = {4};
    spec.recordsPerThread = 500;
    const auto results = runSweep(spec, 1);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok);
    std::ostringstream os;
    writeSweepResultsJson(os, spec, results);
    EXPECT_EQ(os.str().find("\"status\""), std::string::npos);
    EXPECT_EQ(os.str().find("\"error"), std::string::npos);
}

TEST(SweepErrors, RerunLineReproducesTheFailedCellConfig)
{
    // Combined halves wbht.entries to 24, which no 16-way WBHT holds;
    // the rerun line must carry that and every other non-default key,
    // shell-quoted where the value needs it.
    SweepSpec spec;
    spec.workloads = {"thrash"};
    spec.policies = {WbPolicy::Baseline, WbPolicy::Combined};
    spec.outstanding = {6};
    spec.recordsPerThread = 500;
    spec.base.policy.wbht.entries = 48;
    spec.base.topology.l3Slices = 8;
    spec.base.fault.plan = "l3_retry:100:200;disable_snarf:100:200";
    spec.base.l3.accessLatency = 40;
    spec.workloadOverrides = {{"wl.private_lines", "160"}};
    const auto jobs = spec.expand();
    const auto results = runSweep(spec, 1);
    ASSERT_EQ(results.size(), 2u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    ASSERT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("wbht.entries (24)"),
              std::string::npos)
        << results[1].error;
    EXPECT_EQ(results[1].topologySummary,
              "cores=8 smt=2 l2s=4 l3_slices=8");
    EXPECT_NE(results[1].rerun.find(
                  " 'fault.plan=l3_retry:100:200;disable_snarf:100:200' "),
              std::string::npos)
        << results[1].rerun;

    const auto words = shellWords(results[1].rerun);
    ASSERT_GE(words.size(), 5u) << results[1].rerun;
    EXPECT_EQ(words[0], "cmpcache");
    EXPECT_EQ(words[1], "serve");
    EXPECT_EQ(words[2], "--workload=thrash");
    EXPECT_EQ(words[3], "--refs=500");
    EXPECT_EQ(words[4], "--seed=1");
    SystemConfig replay;
    std::vector<std::string> wl;
    for (std::size_t i = 5; i < words.size(); ++i) {
        const auto eq = words[i].find('=');
        ASSERT_NE(eq, std::string::npos) << words[i];
        const std::string key = words[i].substr(0, eq);
        if (key.rfind("wl.", 0) == 0) {
            wl.push_back(words[i]);
            continue;
        }
        const auto r =
            applyConfigOption(replay, key, words[i].substr(eq + 1));
        ASSERT_TRUE(r.ok()) << r.error().message;
    }
    std::ostringstream want, got;
    saveConfig(jobs[1].config, want);
    saveConfig(replay, got);
    EXPECT_EQ(got.str(), want.str()) << results[1].rerun;
    EXPECT_EQ(wl, std::vector<std::string>{"wl.private_lines=160"});
}

TEST(SweepProgress, LongTimesSplitIntoWholeMinutesAndSeconds)
{
    SweepJob job;
    job.workload = "TP";
    job.policy = WbPolicy::Baseline;
    job.outstanding = 6;
    SweepJobResult r;
    r.result.execTime = 1000;
    r.wallSeconds = 170.0;
    std::ostringstream os;
    SweepProgressPrinter progress(os);
    progress.jobFinished(job, r, 1, 2, /*eta_seconds=*/179.7);
    const std::string line = os.str();
    EXPECT_NE(line.find(" in 2m50s ("), std::string::npos) << line;
    EXPECT_NE(line.find(", eta 3m00s\n"), std::string::npos) << line;
}
