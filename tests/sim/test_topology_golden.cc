/**
 * @file
 * Golden byte-identity tests for the topology redesign.
 *
 * The files under tests/golden/ were produced by the pre-topology
 * simulator (the CLI's `sweep --workloads=thrash
 * --policies=baseline,combined --refs=2000` with and without
 * --sample-every=5000). The default topology.* configuration must
 * reproduce them byte for byte, also when the machine shape is
 * spelled out key by key.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "sim/sweep.hh"

using namespace cmpcache;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.is_open()) << "cannot open " << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

std::string
golden(const char *name)
{
    return readFile(std::string(CMPCACHE_SRC_DIR)
                    + "/tests/golden/" + name);
}

/** The spec the golden files were generated from. */
SweepSpec
goldenSpec()
{
    SweepSpec spec;
    spec.workloads = {"thrash"};
    spec.policies = {WbPolicy::Baseline, WbPolicy::Combined};
    spec.outstanding = {6};
    spec.recordsPerThread = 2000;
    spec.seed = 1;
    return spec;
}

std::string
runToJson(const SweepSpec &spec)
{
    const auto results = runSweep(spec, 2);
    for (const auto &r : results)
        EXPECT_TRUE(r.ok) << r.error;
    std::ostringstream os;
    writeSweepResultsJson(os, spec, results);
    return os.str();
}

/** Byte compare with a readable first-difference report. */
void
expectIdentical(const std::string &got, const std::string &want)
{
    if (got == want)
        return;
    std::size_t i = 0;
    while (i < got.size() && i < want.size() && got[i] == want[i])
        ++i;
    const std::size_t from = i < 40 ? 0 : i - 40;
    FAIL() << "outputs diverge at byte " << i << " (got " << got.size()
           << " bytes, want " << want.size() << ")\n  got  ...\""
           << got.substr(from, 80) << "\"\n  want ...\""
           << want.substr(from, 80) << "\"";
}

} // namespace

TEST(TopologyGolden, DefaultShapeMatchesSeedOutput)
{
    expectIdentical(runToJson(goldenSpec()), golden("plain_rt0.json"));
}

TEST(TopologyGolden, SampledRunMatchesSeedOutput)
{
    SweepSpec spec = goldenSpec();
    spec.base.obs.sampleEvery = 5000;
    expectIdentical(runToJson(spec), golden("sampled_rt0.json"));
}

TEST(TopologyGolden, ExplicitCanonicalKeysMatchDefaults)
{
    SweepSpec spec = goldenSpec();
    spec.base.topology.cores = 8;
    spec.base.topology.smt = 2;
    spec.base.topology.l2s = 4;
    spec.base.topology.l3Slices = 4;
    expectIdentical(runToJson(spec), golden("plain_rt0.json"));

    // The same 16 threads as single-SMT cores (the shape the removed
    // num_l2s/threads_per_l2 keys described) are the same machine.
    spec.base.topology.cores = 16;
    spec.base.topology.smt = 1;
    expectIdentical(runToJson(spec), golden("plain_rt0.json"));
}
