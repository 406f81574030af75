/**
 * @file
 * Tests for the declarative CmpTopology: validation of topology.*
 * parameter sets (each error names its key), the flat() factory,
 * agent/stop placement, and a small end-to-end run on a scaled
 * machine.
 */

#include <gtest/gtest.h>

#include "sim/config_io.hh"
#include "sim/sweep.hh"
#include "sim/system_config.hh"
#include "sim/topology.hh"

using namespace cmpcache;

namespace
{

/** Does any validation error mention @p needle? */
bool
mentions(const std::vector<std::string> &errs, const std::string &needle)
{
    for (const auto &e : errs)
        if (e.find(needle) != std::string::npos)
            return true;
    return false;
}

std::string
joined(const std::vector<std::string> &errs)
{
    std::string s;
    for (const auto &e : errs)
        s += e + "\n";
    return s;
}

} // namespace

// ---------------------------------------------------------------------
// Validation: every rejected shape names the offending config key.
// ---------------------------------------------------------------------

TEST(TopologyValidate, DefaultShapeIsValid)
{
    TopologyParams p;
    EXPECT_TRUE(validateTopology(p).empty());
}

TEST(TopologyValidate, ZeroCoresNamed)
{
    TopologyParams p;
    p.cores = 0;
    const auto errs = validateTopology(p);
    EXPECT_TRUE(mentions(errs, "topology.cores must be positive"))
        << joined(errs);
}

TEST(TopologyValidate, ZeroSmtNamed)
{
    TopologyParams p;
    p.smt = 0;
    EXPECT_TRUE(
        mentions(validateTopology(p), "topology.smt must be positive"));
}

TEST(TopologyValidate, ZeroL2sNamed)
{
    TopologyParams p;
    p.l2s = 0;
    EXPECT_TRUE(
        mentions(validateTopology(p), "topology.l2s must be positive"));
}

TEST(TopologyValidate, L2CountBoundedByAgentIdWidth)
{
    TopologyParams p;
    p.cores = 254;
    p.smt = 1;
    p.l2s = 254;
    const auto errs = validateTopology(p);
    EXPECT_TRUE(mentions(errs, "topology.l2s (254) must be <= 253"))
        << joined(errs);

    p.cores = 253;
    p.l2s = 253;
    EXPECT_TRUE(validateTopology(p).empty());
}

TEST(TopologyValidate, ThreadsMustDivideAcrossL2s)
{
    TopologyParams p;
    p.cores = 9;
    p.smt = 1;
    p.l2s = 4;
    const auto errs = validateTopology(p);
    EXPECT_TRUE(mentions(errs, "must divide evenly across "
                               "topology.l2s (4)"))
        << joined(errs);
}

TEST(TopologyValidate, ThreadCountBoundedByThreadIdWidth)
{
    TopologyParams p;
    p.cores = 40000;
    p.smt = 2;
    p.l2s = 40000; // keep the l2s check quiet about divisibility
    const auto errs = validateTopology(p);
    EXPECT_TRUE(mentions(errs, "must be <= 65535")) << joined(errs);
}

TEST(TopologyValidate, ThreadCountOverflowNamed)
{
    TopologyParams p;
    p.cores = 1u << 16;
    p.smt = 1u << 16; // cores * smt wraps a 32-bit unsigned
    p.l2s = 4;
    const auto errs = validateTopology(p);
    EXPECT_TRUE(mentions(errs, "overflows the thread count"))
        << joined(errs);
}

TEST(TopologyValidate, L3SlicesMustBePowerOfTwo)
{
    TopologyParams p;
    for (unsigned bad : {0u, 3u, 6u, 12u}) {
        p.l3Slices = bad;
        EXPECT_TRUE(mentions(validateTopology(p),
                             "topology.l3_slices"))
            << "accepted l3Slices = " << bad;
    }
    for (unsigned good : {1u, 2u, 8u, 64u}) {
        p.l3Slices = good;
        EXPECT_TRUE(validateTopology(p).empty())
            << "rejected l3Slices = " << good;
    }
}

TEST(TopologyValidate, BuildRollsErrorsIntoConfigError)
{
    TopologyParams p;
    p.cores = 0;
    p.l3Slices = 3;
    const auto t = CmpTopology::build(p);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.error().kind, SimErrorKind::Config);
    EXPECT_NE(t.error().message.find("topology.cores"),
              std::string::npos);
    EXPECT_NE(t.error().message.find("topology.l3_slices"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// The flat() factory: the shape the test suites describe with the old
// three-field idiom.
// ---------------------------------------------------------------------

TEST(TopologyLegacy, FlatFactoryMatchesOldThreeFieldIdiom)
{
    const TopologyParams p = TopologyParams::flat(2, 2);
    EXPECT_EQ(p.l2s, 2u);
    EXPECT_EQ(p.cores, 4u);
    EXPECT_EQ(p.smt, 1u);
    EXPECT_EQ(p.threadsPerL2(), 2u);
    EXPECT_TRUE(validateTopology(p).empty());
}

// ---------------------------------------------------------------------
// Placement: agents, stops, thread clustering.
// ---------------------------------------------------------------------

TEST(TopologyPlacement, PaperMachineShape)
{
    TopologyParams p; // default: 8c x 2smt, 4 L2s, 4 slices
    const auto t = CmpTopology::build(p);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t->numCores(), 8u);
    EXPECT_EQ(t->numThreads(), 16u);
    EXPECT_EQ(t->numL2s(), 4u);
    EXPECT_EQ(t->threadsPerL2(), 4u);
    EXPECT_EQ(t->numL3Slices(), 4u);
    EXPECT_EQ(t->numAgents(), 6u);
}

TEST(TopologyPlacement, AgentIdsInOrder)
{
    const CmpTopology t = CmpTopology::flat(4, 4);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(t.l2Agent(i), static_cast<AgentId>(i));
        EXPECT_TRUE(t.isL2Agent(t.l2Agent(i)));
    }
    EXPECT_EQ(t.l3Agent(), 4);
    EXPECT_EQ(t.memAgent(), 5);
    EXPECT_FALSE(t.isL2Agent(t.l3Agent()));
    EXPECT_FALSE(t.isL2Agent(t.memAgent()));
}

TEST(TopologyPlacement, ThreadsClusterContiguously)
{
    const CmpTopology t = CmpTopology::flat(4, 4);
    for (unsigned tid = 0; tid < t.numThreads(); ++tid)
        EXPECT_EQ(t.l2OfThread(tid), tid / 4);
}

TEST(TopologyPlacement, SixtyFourCoreMachineBuilds)
{
    TopologyParams p;
    p.cores = 64;
    p.smt = 1;
    p.l2s = 16;
    p.l3Slices = 16;
    const auto t = CmpTopology::build(p);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t->numThreads(), 64u);
    EXPECT_EQ(t->numAgents(), 18u);
    EXPECT_EQ(t->l3Agent(), 16);
    EXPECT_EQ(t->memAgent(), 17);
    EXPECT_EQ(t->l2OfThread(63), 15u);
}

// ---------------------------------------------------------------------
// End to end: a scaled machine runs a real workload cleanly, with the
// coherence invariant checker on.
// ---------------------------------------------------------------------

TEST(TopologyEndToEnd, SixtyFourCoreMachineRunsClean)
{
    SweepSpec spec;
    spec.workloads = {"thrash"};
    spec.policies = {WbPolicy::Combined};
    spec.outstanding = {6};
    spec.recordsPerThread = 300;
    spec.checkCoherence = true;
    spec.base.topology.cores = 64;
    spec.base.topology.smt = 1;
    spec.base.topology.l2s = 16;
    spec.base.topology.l3Slices = 16;
    const auto results = runSweep(spec, 1);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[0].coherenceViolations, 0u);
    EXPECT_GT(results[0].result.execTime, 0u);
    EXPECT_GT(results[0].eventsExecuted, 0u);
}

// ---------------------------------------------------------------------
// Hostile configuration corpus: malformed topology.* values must fail
// as named config errors without touching the shape. This suite runs
// under ASan/UBSan (test_topology carries the sanitize label).
// ---------------------------------------------------------------------

TEST(TopologyHostileConfig, CanonicalKeysRejectHostileValues)
{
    SystemConfig cfg;
    // Shape fields are 32-bit: a value that parses as u64 but would
    // silently wrap is a named error, as are the usual malformed
    // integers.
    for (const auto *key :
         {"topology.cores", "topology.smt", "topology.l2s",
          "topology.l3_slices"}) {
        const auto over = applyConfigOption(cfg, key, "4294967296");
        ASSERT_FALSE(over.ok()) << key;
        EXPECT_NE(over.error().message.find(
                      "expects an integer from 0 to 4294967295"),
                  std::string::npos)
            << over.error().message;
        for (const auto *bad :
             {"-1", "1.5", "4x", "", " ",
              "99999999999999999999999"}) {
            EXPECT_FALSE(applyConfigOption(cfg, key, bad).ok())
                << key << " accepted '" << bad << "'";
        }
    }
    // Nothing above may have modified the config.
    EXPECT_EQ(cfg.topology.cores, 8u);
}

TEST(TopologyHostileConfig, AbsurdShapesFailValidationNotAssertions)
{
    // Values that parse fine but describe impossible machines must
    // come back as validation errors, never construct a topology.
    const struct
    {
        unsigned cores, smt, l2s, slices;
    } corpus[] = {
        {0, 0, 0, 0},
        {1, 1, 200, 4},          // threads < l2s
        {4294967295u, 1, 4, 4},  // thread-id overflow
        {16, 4294967295u, 4, 4}, // cores * smt wraps
        {8, 2, 253, 4},          // indivisible at the id ceiling
        {8, 2, 4, 4294967295u},  // slice mask impossible
    };
    for (const auto &c : corpus) {
        TopologyParams p;
        p.cores = c.cores;
        p.smt = c.smt;
        p.l2s = c.l2s;
        p.l3Slices = c.slices;
        EXPECT_FALSE(CmpTopology::build(p).ok())
            << c.cores << "c x" << c.smt << " " << c.l2s << "xL2";
    }
}
