/** @file Unit tests for status reporting. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hh"

using namespace cmpcache;

TEST(Logging, CstrConcatenatesMixedTypes)
{
    EXPECT_EQ(cstr("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(cstr(), "");
    EXPECT_EQ(cstr(42), "42");
}

TEST(Logging, WarnAndInformGoToSink)
{
    std::ostringstream sink;
    logging_detail::setLogSink(&sink);
    warn("w ", 1);
    inform("i ", 2);
    logging_detail::setLogSink(nullptr);
    EXPECT_NE(sink.str().find("warn: w 1"), std::string::npos);
    EXPECT_NE(sink.str().find("info: i 2"), std::string::npos);
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(cmp_panic("boom ", 7), "boom 7");
}

TEST(LoggingDeath, AssertFiresOnFalse)
{
    EXPECT_DEATH(cmp_assert(1 == 2, "math broke"), "math broke");
}

TEST(Logging, AssertPassesOnTrue)
{
    cmp_assert(2 + 2 == 4, "should not fire");
    SUCCEED();
}
