/** @file Unit tests for CLI option parsing. */

#include <gtest/gtest.h>

#include "common/cli.hh"
#include "config_error.hh"

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
    EXPECT_EQ(a.get("refs", std::uint64_t{0}), 100u);
    EXPECT_EQ(a.getString("name", ""), "tp");
}

TEST(Cli, FlagWithoutValueIsTrue)
{
    const auto a = parse({"--verbose"});
    EXPECT_TRUE(a.get("verbose", false));
    EXPECT_TRUE(a.has("verbose"));
    EXPECT_FALSE(a.has("quiet"));
}

TEST(Cli, DefaultsWhenAbsent)
{
    const auto a = parse({});
    EXPECT_EQ(a.get("x", std::uint64_t{42}), 42u);
    EXPECT_EQ(a.getString("y", "dflt"), "dflt");
    EXPECT_FALSE(a.get("w", false));
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
    EXPECT_TRUE(a.get("a", false));
    EXPECT_FALSE(a.get("b", true));
    EXPECT_TRUE(a.get("c", false));
    EXPECT_FALSE(a.get("d", true));
}

TEST(Cli, NegativeIntegers)
{
    // Integer options are unsigned: "-5" is an error naming the
    // option, not a value that wraps to 2^64 - 5.
    const auto a = parse({"--n=-5"});
    EXPECT_TRUE(throwsNaming([&] { a.get("n", std::uint64_t{0}); },
                             "option --n expects an integer"));
}

TEST(CliDeath, MalformedIntegerIsFatal)
{
    const auto a = parse({"--n=abc"});
    EXPECT_TRUE(throwsNaming([&] { a.get("n", std::uint64_t{0}); },
                             "expects an integer"));
}

TEST(CliDeath, IntegerOptionsFollowTheConfigFileRule)
{
    // The digits-only rule config values use: no trailing garbage,
    // signs, spaces or hex.
    for (const char *bad :
         {"300abc", "6x", "-1", "+5", " 5", "0x10", "",
          "99999999999999999999999"}) {
        std::uint64_t v = 7;
        EXPECT_FALSE(parseInto(v, "value", bad).ok()) << bad;
        EXPECT_EQ(v, 7u) << bad;
        const auto a = parse({(std::string("--n=") + bad).c_str()});
        EXPECT_TRUE(throwsNaming([&] { a.get("n", std::uint64_t{0}); },
                                 "option --n"))
            << bad;
    }
    std::uint64_t max = 0;
    ASSERT_TRUE(parseInto(max, "value", "18446744073709551615").ok());
    EXPECT_EQ(max, std::uint64_t{18446744073709551615ull});
}

TEST(CliDeath, IntegerOptionsMustFitTheirType)
{
    const auto a = parse({"--n=4294967296"});
    EXPECT_EQ(a.get("n", std::uint64_t{0}), 4294967296ull);
    EXPECT_TRUE(
        throwsNaming([&] { a.get("n", 0u); },
                     "option --n expects an integer from 0 to 4294967295"));
}

TEST(CliDeath, UnknownOptionIsFatalAndNamed)
{
    const auto a = parse({"--refs=100", "--quiet", "--thread=1"});
    a.requireKnown({"refs", "quiet", "thread"});
    EXPECT_TRUE(
        throwsNaming([&] { a.requireKnown({"refs", "quiet", "threads"}); },
                     "unknown option --thread"));
}

TEST(CliDeath, PositionalIsFatalAndNamedWhereNoneIsTaken)
{
    parse({"--refs=100"}).requireNoPositional();
    const auto a = parse({"--refs=100", "refs=7", "extra"});
    EXPECT_TRUE(throwsNaming([&] { a.requireNoPositional(); },
                             "unexpected argument 'refs=7'"));
}

TEST(Cli, ParseIntoPicksTheRuleFromTheFieldType)
{
    // One text, three fields: each type applies its own rule.
    bool b = false;
    unsigned u = 0;
    double d = 0.0;
    ASSERT_TRUE(parseInto(b, "key", "1").ok());
    ASSERT_TRUE(parseInto(u, "key", "1").ok());
    ASSERT_TRUE(parseInto(d, "key", "1").ok());
    EXPECT_TRUE(b);
    EXPECT_EQ(u, 1u);
    EXPECT_EQ(d, 1.0);

    // A bad value leaves the field alone and names @p what.
    const auto bad_bool = parseInto(b, "config key 'warmup'", "1.5");
    ASSERT_FALSE(bad_bool.ok());
    EXPECT_EQ(bad_bool.error().kind, SimErrorKind::Config);
    EXPECT_EQ(bad_bool.error().message,
              "config key 'warmup' expects a boolean, got '1.5'");
    const auto bad_uint = parseInto(u, "option --refs", "1.5");
    ASSERT_FALSE(bad_uint.ok());
    EXPECT_EQ(bad_uint.error().message,
              "option --refs expects an integer from 0 to 4294967295, "
              "got '1.5'");
    const auto bad_real = parseInto(d, "workload key 'wl.gap_mean'", "inf");
    ASSERT_FALSE(bad_real.ok());
    EXPECT_EQ(bad_real.error().message,
              "workload key 'wl.gap_mean' expects a finite number, got "
              "'inf'");
    EXPECT_TRUE(b);
    EXPECT_EQ(u, 1u);
    EXPECT_EQ(d, 1.0);
}
