/** @file Unit tests for CLI option parsing. */

#include <gtest/gtest.h>

#include "common/cli.hh"

using namespace cmpcache;

namespace
{

CliArgs
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> v = {"prog"};
    v.insert(v.end(), args.begin(), args.end());
    return CliArgs(static_cast<int>(v.size()), v.data());
}

} // namespace

TEST(Cli, ParsesKeyValue)
{
    const auto a = parse({"--refs=100", "--name=tp"});
    EXPECT_EQ(a.getUnsigned("refs", std::uint64_t{0}), 100u);
    EXPECT_EQ(a.getString("name", ""), "tp");
}

TEST(Cli, FlagWithoutValueIsTrue)
{
    const auto a = parse({"--verbose"});
    EXPECT_TRUE(a.getBool("verbose", false));
    EXPECT_TRUE(a.has("verbose"));
    EXPECT_FALSE(a.has("quiet"));
}

TEST(Cli, DefaultsWhenAbsent)
{
    const auto a = parse({});
    EXPECT_EQ(a.getUnsigned("x", std::uint64_t{42}), 42u);
    EXPECT_EQ(a.getString("y", "dflt"), "dflt");
    EXPECT_FALSE(a.getBool("w", false));
}

TEST(Cli, PositionalCollected)
{
    const auto a = parse({"one", "--k=v", "two"});
    ASSERT_EQ(a.positional().size(), 2u);
    EXPECT_EQ(a.positional()[0], "one");
    EXPECT_EQ(a.positional()[1], "two");
}

TEST(Cli, BooleanSpellings)
{
    const auto a = parse({"--a=yes", "--b=off", "--c=1", "--d=false"});
    EXPECT_TRUE(a.getBool("a", false));
    EXPECT_FALSE(a.getBool("b", true));
    EXPECT_TRUE(a.getBool("c", false));
    EXPECT_FALSE(a.getBool("d", true));
}

TEST(Cli, NegativeIntegers)
{
    // Integer options are unsigned: "-5" is an error naming the
    // option, not a value that wraps to 2^64 - 5.
    const auto a = parse({"--n=-5"});
    EXPECT_EXIT(a.getUnsigned("n", std::uint64_t{0}),
                ::testing::ExitedWithCode(1),
                "option --n expects an integer");
}

TEST(CliDeath, MalformedIntegerIsFatal)
{
    const auto a = parse({"--n=abc"});
    EXPECT_EXIT(a.getUnsigned("n", std::uint64_t{0}),
                ::testing::ExitedWithCode(1), "expects an integer");
}

TEST(CliDeath, IntegerOptionsFollowTheConfigFileRule)
{
    // The digits-only rule config values use: no trailing garbage,
    // signs, spaces or hex.
    for (const char *bad :
         {"300abc", "6x", "-1", "+5", " 5", "0x10", "",
          "99999999999999999999999"}) {
        EXPECT_FALSE(parseUnsigned(bad).has_value()) << bad;
        const auto a = parse({(std::string("--n=") + bad).c_str()});
        EXPECT_EXIT(a.getUnsigned("n", std::uint64_t{0}),
                    ::testing::ExitedWithCode(1), "option --n")
            << bad;
    }
    EXPECT_EQ(parseUnsigned("18446744073709551615"),
              std::uint64_t{18446744073709551615ull});
}

TEST(CliDeath, IntegerOptionsMustFitTheirType)
{
    const auto a = parse({"--n=4294967296"});
    EXPECT_EQ(a.getUnsigned("n", std::uint64_t{0}), 4294967296ull);
    EXPECT_EXIT(a.getUnsigned("n", 0u), ::testing::ExitedWithCode(1),
                "option --n expects an integer from 0 to 4294967295");
}

TEST(CliDeath, UnknownOptionIsFatalAndNamed)
{
    const auto a = parse({"--refs=100", "--quiet", "--thread=1"});
    a.requireKnown({"refs", "quiet", "thread"});
    EXPECT_EXIT(a.requireKnown({"refs", "quiet", "threads"}),
                ::testing::ExitedWithCode(1), "unknown option --thread");
}

TEST(CliDeath, PositionalIsFatalAndNamedWhereNoneIsTaken)
{
    parse({"--refs=100"}).requireNoPositional();
    const auto a = parse({"--refs=100", "refs=7", "extra"});
    EXPECT_EXIT(a.requireNoPositional(), ::testing::ExitedWithCode(1),
                "unexpected argument 'refs=7'");
}
