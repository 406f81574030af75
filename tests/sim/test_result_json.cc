/**
 * @file
 * Exact-text tests for the ExperimentResult writer and the sweep
 * results container: fixed key order, integers printed exactly and
 * doubles with 17 significant digits, so a reader's strtod gets every
 * field back bit for bit. The readers themselves are Python; ctest
 * json_outputs_strict loads real outputs with a strict json.loads.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>

#include "sim/result_json.hh"
#include "sim/sweep.hh"

using namespace cmpcache;

namespace
{

/** A result with every field set to a distinctive value, including
 * doubles that need all 17 digits to survive a round trip. */
ExperimentResult
sample()
{
    ExperimentResult r;
    r.workload = "Trade2";
    r.policy = "combined";
    r.maxOutstanding = 6;
    r.execTime = 123456789;
    r.wbhtCorrectPct = 93.423999999999992;
    r.l3LoadHitRatePct = 1.0 / 3.0;
    r.l2WbRequests = 70584;
    r.l3Retries = 42;
    r.offChipAccesses = 991;
    r.wbSnarfedPct = 71.25;
    r.snarfedUsedLocallyPct = 0.1 + 0.2; // famously not 0.3
    r.snarfedForInterventionPct = 17.0;
    r.l2HitRatePct = 88.125;
    r.cleanWbRedundantPct = 74.0;
    r.wbReusedTotalPct = 12.5;
    r.wbReusedAcceptedPct = 6.25;
    r.wbAborted = 36510;
    r.memReads = 123;
    r.interventions = 456;
    r.busRetries = 789;
    return r;
}

/** resultToJson(sample()), byte for byte. */
const char *const kSampleJson =
    "{\n"
    "  \"schemaVersion\": 2,\n"
    "  \"workload\": \"Trade2\",\n"
    "  \"policy\": \"combined\",\n"
    "  \"maxOutstanding\": 6,\n"
    "  \"execTime\": 123456789,\n"
    "  \"wbhtCorrectPct\": 93.423999999999992,\n"
    "  \"l3LoadHitRatePct\": 0.33333333333333331,\n"
    "  \"l2WbRequests\": 70584,\n"
    "  \"l3Retries\": 42,\n"
    "  \"offChipAccesses\": 991,\n"
    "  \"wbSnarfedPct\": 71.25,\n"
    "  \"snarfedUsedLocallyPct\": 0.30000000000000004,\n"
    "  \"snarfedForInterventionPct\": 17,\n"
    "  \"l2HitRatePct\": 88.125,\n"
    "  \"cleanWbRedundantPct\": 74,\n"
    "  \"wbReusedTotalPct\": 12.5,\n"
    "  \"wbReusedAcceptedPct\": 6.25,\n"
    "  \"wbAborted\": 36510,\n"
    "  \"memReads\": 123,\n"
    "  \"interventions\": 456,\n"
    "  \"busRetries\": 789\n"
    "}";

/** The value tokens of a flat writeResultJson object, by key. */
std::map<std::string, std::string>
tokens(const std::string &text)
{
    std::map<std::string, std::string> out;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) {
        const auto colon = line.find("\": ");
        if (colon == std::string::npos)
            continue;
        std::string value = line.substr(colon + 3);
        if (!value.empty() && value.back() == ',')
            value.pop_back();
        out[line.substr(line.find('"') + 1,
                        colon - line.find('"') - 1)] = value;
    }
    return out;
}

/** Read every field of @p r back from its text and compare exactly. */
void
expectReadsBack(const ExperimentResult &r)
{
    auto t = tokens(resultToJson(r));
    ASSERT_EQ(t.size(), 21u);
    const auto u64 = [&t](const char *key) {
        return std::strtoull(t[key].c_str(), nullptr, 10);
    };
    const auto dbl = [&t](const char *key) {
        return std::strtod(t[key].c_str(), nullptr);
    };
    EXPECT_EQ(u64("schemaVersion"), kResultSchemaVersion);
    EXPECT_EQ(t["workload"], "\"" + jsonEscape(r.workload) + "\"");
    EXPECT_EQ(t["policy"], "\"" + jsonEscape(r.policy) + "\"");
    EXPECT_EQ(u64("maxOutstanding"), r.maxOutstanding);
    EXPECT_EQ(u64("execTime"), r.execTime);
    EXPECT_EQ(dbl("wbhtCorrectPct"), r.wbhtCorrectPct);
    EXPECT_EQ(dbl("l3LoadHitRatePct"), r.l3LoadHitRatePct);
    EXPECT_EQ(u64("l2WbRequests"), r.l2WbRequests);
    EXPECT_EQ(u64("l3Retries"), r.l3Retries);
    EXPECT_EQ(u64("offChipAccesses"), r.offChipAccesses);
    EXPECT_EQ(dbl("wbSnarfedPct"), r.wbSnarfedPct);
    EXPECT_EQ(dbl("snarfedUsedLocallyPct"), r.snarfedUsedLocallyPct);
    EXPECT_EQ(dbl("snarfedForInterventionPct"),
              r.snarfedForInterventionPct);
    EXPECT_EQ(dbl("l2HitRatePct"), r.l2HitRatePct);
    EXPECT_EQ(dbl("cleanWbRedundantPct"), r.cleanWbRedundantPct);
    EXPECT_EQ(dbl("wbReusedTotalPct"), r.wbReusedTotalPct);
    EXPECT_EQ(dbl("wbReusedAcceptedPct"), r.wbReusedAcceptedPct);
    EXPECT_EQ(u64("wbAborted"), r.wbAborted);
    EXPECT_EQ(u64("memReads"), r.memReads);
    EXPECT_EQ(u64("interventions"), r.interventions);
    EXPECT_EQ(u64("busRetries"), r.busRetries);
}

} // namespace

TEST(ResultJson, WritesExactText)
{
    EXPECT_EQ(resultToJson(sample()), kSampleJson);
}

TEST(ResultJson, RoundTripExact)
{
    expectReadsBack(sample());
}

TEST(ResultJson, RoundTripDefaultConstructed)
{
    ExperimentResult r;
    r.workload = "x";
    r.policy = "baseline";
    expectReadsBack(r);
}

TEST(ResultJson, EmissionIsDeterministic)
{
    EXPECT_EQ(resultToJson(sample()), resultToJson(sample()));
}

TEST(ResultJson, EscapesStrings)
{
    ExperimentResult in = sample();
    in.workload = "we\"ird\\name\n\t\x01";
    const std::string text = resultToJson(in);
    EXPECT_NE(text.find("  \"workload\": \"we\\\"ird\\\\name\\n\\t"
                        "\\u0001\",\n"),
              std::string::npos)
        << text;
}

TEST(JsonDouble, SeventeenDigitsReadBackExactly)
{
    EXPECT_EQ(jsonDouble(0.1 + 0.2), "0.30000000000000004");
    EXPECT_EQ(jsonDouble(1.0 / 3.0), "0.33333333333333331");
    EXPECT_EQ(jsonDouble(74.0), "74");
    EXPECT_EQ(jsonDouble(0.1), "0.10000000000000001");
    for (const double x :
         {0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, 93.423999999999992, 0.0,
          -0.5, 1e-300, DBL_MIN, DBL_TRUE_MIN, DBL_MAX, 123456789.125,
          std::nextafter(1.0, 2.0)}) {
        EXPECT_EQ(std::strtod(jsonDouble(x).c_str(), nullptr), x)
            << jsonDouble(x);
    }
}

TEST(JsonDouble, NonFiniteValuesWriteZero)
{
    // JSON has no NaN or Infinity; a strict reader would reject them.
    EXPECT_EQ(jsonDouble(std::nan("")), "0");
    EXPECT_EQ(jsonDouble(HUGE_VAL), "0");
    EXPECT_EQ(jsonDouble(-HUGE_VAL), "0");
}

TEST(SweepResultsJson, RoundTripThroughContainer)
{
    // Every cell's object sits in the container exactly as the result
    // writer prints it, in job order.
    SweepSpec spec;
    spec.workloads = {"a", "b"};
    spec.policies = {WbPolicy::Baseline, WbPolicy::Snarf};
    spec.outstanding = {6};
    spec.checkCoherence = true;

    std::vector<SweepJobResult> results(2);
    results[0].result = sample();
    results[1].result = sample();
    results[1].result.workload = "b";
    results[1].result.execTime = 999;
    results[1].coherenceViolations = 3;

    std::ostringstream os;
    writeSweepResultsJson(os, spec, results);

    std::ostringstream cell0, cell1;
    writeResultJson(cell0, results[0].result, 4);
    writeResultJson(cell1, results[1].result, 4);
    EXPECT_EQ(os.str(), "{\n"
                        "  \"schema\": \"cmpcache-sweep-results-v2\",\n"
                        "  \"schemaVersion\": 2,\n"
                        "  \"workloads\": [\"a\", \"b\"],\n"
                        "  \"policies\": [\"baseline\", \"snarf\"],\n"
                        "  \"outstanding\": [6],\n"
                        "  \"recordsPerThread\": 20000,\n"
                        "  \"seed\": 1,\n"
                        "  \"checkCoherence\": true,\n"
                        "  \"coherenceViolations\": [0, 3],\n"
                        "  \"results\": [\n"
                            + cell0.str() + ",\n" + cell1.str()
                            + "\n  ]\n}\n");
}
