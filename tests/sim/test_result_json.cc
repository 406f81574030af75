/**
 * @file
 * JSON round-trip and strictness tests for ExperimentResult
 * serialization, plus the sweep results container format.
 */

#include <gtest/gtest.h>

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

} // namespace

TEST(ResultJson, RoundTripExact)
{
    const ExperimentResult in = sample();
    ExperimentResult out;
    std::string err;
    ASSERT_TRUE(parseResultJson(resultToJson(in), out, &err)) << err;
    EXPECT_EQ(in, out);
}

TEST(ResultJson, RoundTripDefaultConstructed)
{
    ExperimentResult in;
    in.workload = "x";
    in.policy = "baseline";
    ExperimentResult out;
    ASSERT_TRUE(parseResultJson(resultToJson(in), out));
    EXPECT_EQ(in, out);
}

TEST(ResultJson, EmissionIsDeterministic)
{
    EXPECT_EQ(resultToJson(sample()), resultToJson(sample()));
}

TEST(ResultJson, EscapesStrings)
{
    ExperimentResult in = sample();
    in.workload = "we\"ird\\name\n";
    ExperimentResult out;
    std::string err;
    ASSERT_TRUE(parseResultJson(resultToJson(in), out, &err)) << err;
    EXPECT_EQ(out.workload, in.workload);
}

TEST(ResultJson, RejectsMalformedSyntax)
{
    ExperimentResult out;
    std::string err;
    EXPECT_FALSE(parseResultJson("", out, &err));
    EXPECT_FALSE(parseResultJson("{", out, &err));
    EXPECT_FALSE(parseResultJson("[]", out, &err));
    EXPECT_FALSE(parseResultJson("not json at all", out, &err));
    std::string broken = resultToJson(sample());
    broken.pop_back(); // drop the closing brace
    EXPECT_FALSE(parseResultJson(broken, out, &err));
}

TEST(ResultJson, RejectsTrailingGarbage)
{
    ExperimentResult out;
    EXPECT_FALSE(parseResultJson(resultToJson(sample()) + "x", out));
}

TEST(ResultJson, RejectsMissingField)
{
    std::string text = resultToJson(sample());
    const auto pos = text.find("\"l2WbRequests\"");
    ASSERT_NE(pos, std::string::npos);
    const auto end = text.find('\n', pos);
    text.erase(pos, end - pos + 1);
    ExperimentResult out;
    std::string err;
    EXPECT_FALSE(parseResultJson(text, out, &err));
    EXPECT_NE(err.find("l2WbRequests"), std::string::npos) << err;
}

TEST(ResultJson, RejectsWrongType)
{
    std::string text = resultToJson(sample());
    // Integer field given a string value.
    const auto pos = text.find("\"l3Retries\": 42");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 15, "\"l3Retries\": \"42\"");
    ExperimentResult out;
    EXPECT_FALSE(parseResultJson(text, out));
}

TEST(ResultJson, RejectsFractionalInteger)
{
    std::string text = resultToJson(sample());
    const auto pos = text.find("\"l3Retries\": 42");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 15, "\"l3Retries\": 42.5");
    ExperimentResult out;
    EXPECT_FALSE(parseResultJson(text, out));
}

TEST(SweepResultsJson, RoundTripThroughContainer)
{
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

    std::ostringstream os;
    writeSweepResultsJson(os, spec, results);

    std::vector<SweepCellOutcome> parsed;
    std::string err;
    ASSERT_TRUE(parseSweepResultsJson(os.str(), parsed, &err)) << err;
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_TRUE(parsed[0].ok);
    EXPECT_TRUE(parsed[1].ok);
    EXPECT_EQ(parsed[0].result, results[0].result);
    EXPECT_EQ(parsed[1].result, results[1].result);
}

TEST(SweepResultsJson, RejectsWrongSchema)
{
    std::string text =
        "{\n  \"schema\": \"something-else-v9\",\n  \"results\": []\n}";
    std::vector<SweepCellOutcome> parsed;
    std::string err;
    EXPECT_FALSE(parseSweepResultsJson(text, parsed, &err));
    EXPECT_NE(err.find("schema"), std::string::npos) << err;
}

TEST(ResultJson, RejectsMissingSchemaVersion)
{
    // Result objects without the field were the v1 format; it is no
    // longer read.
    std::string text = resultToJson(sample());
    const auto pos = text.find("\"schemaVersion\"");
    ASSERT_NE(pos, std::string::npos);
    text.erase(pos, text.find('\n', pos) - pos + 1);
    ExperimentResult out;
    std::string err;
    EXPECT_FALSE(parseResultJson(text, out, &err));
    EXPECT_NE(err.find("schemaVersion"), std::string::npos) << err;
}

TEST(SweepResultsJson, RejectsV1ContainerTag)
{
    SweepSpec spec;
    spec.workloads = {"a"};
    spec.policies = {WbPolicy::Baseline};
    spec.outstanding = {6};
    std::vector<SweepJobResult> results(1);
    results[0].result = sample();
    std::ostringstream os;
    writeSweepResultsJson(os, spec, results);
    std::string text = os.str();
    const std::string v2 = "cmpcache-sweep-results-v2";
    const auto pos = text.find(v2);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, v2.size(), "cmpcache-sweep-results-v1");

    std::vector<SweepCellOutcome> parsed;
    std::string err;
    EXPECT_FALSE(parseSweepResultsJson(text, parsed, &err));
    EXPECT_NE(err.find("cmpcache-sweep-results-v1"), std::string::npos)
        << err;
}
