/**
 * @file
 * Source-scan enforcement of the topology API contract: CmpTopology
 * is the single owner of agent-id arithmetic, so no
 * other file under src/ may compute "numL2s + 1"-style ids by hand.
 * New code that reintroduces the old idiom fails here with the
 * offending file and line.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace
{

struct Offence
{
    std::string file;
    unsigned line;
    std::string text;
};

/** The hand-rolled placement idioms the topology API replaced. */
const std::regex &
bannedPattern()
{
    static const std::regex re(
        "(numL2s(\\(\\))?|num_l2s|numAgents(\\(\\))?|num_agents)"
        "\\s*[-+]\\s*[0-9]");
    return re;
}

bool
isSourceFile(const fs::path &p)
{
    const auto ext = p.extension().string();
    return ext == ".cc" || ext == ".hh";
}

/** topology.{hh,cc} own the arithmetic (and name the banned idiom in
 * their own documentation). */
bool
isTopologyOwner(const fs::path &p)
{
    const auto name = p.filename().string();
    return name == "topology.hh" || name == "topology.cc";
}

std::vector<Offence>
scan(const fs::path &root)
{
    std::vector<Offence> offences;
    for (const auto &entry : fs::recursive_directory_iterator(root)) {
        if (!entry.is_regular_file() || !isSourceFile(entry.path())
            || isTopologyOwner(entry.path())) {
            continue;
        }
        std::ifstream is(entry.path());
        std::string line;
        unsigned lineno = 0;
        while (std::getline(is, line)) {
            ++lineno;
            if (std::regex_search(line, bannedPattern())) {
                offences.push_back(
                    {entry.path().string(), lineno, line});
            }
        }
    }
    return offences;
}

} // namespace

TEST(TopologyGrep, NoHandRolledAgentArithmeticInSrc)
{
    const fs::path root = fs::path(CMPCACHE_SRC_DIR) / "src";
    ASSERT_TRUE(fs::exists(root)) << root;

    const auto offences = scan(root);
    std::ostringstream msg;
    for (const auto &o : offences)
        msg << "\n  " << o.file << ":" << o.line << ": " << o.text;
    EXPECT_TRUE(offences.empty())
        << "hand-rolled agent-id arithmetic found (use CmpTopology "
           "instead):"
        << msg.str();
}

TEST(TopologyGrep, ScanSeesTheSimulatorSources)
{
    // Guard the guard: if the tree moves, fail loudly instead of
    // silently scanning nothing.
    const fs::path root = fs::path(CMPCACHE_SRC_DIR) / "src";
    unsigned files = 0;
    for (const auto &entry : fs::recursive_directory_iterator(root))
        if (entry.is_regular_file() && isSourceFile(entry.path()))
            ++files;
    EXPECT_GE(files, 40u);
}
