/**
 * @file
 * Test assertions for user-input errors: a SimError of kind Config,
 * returned in an Expected or thrown as a SimException.
 *
 *     EXPECT_TRUE(failsNaming(applyWorkloadOption(p, k, v), "wl.x"));
 *     EXPECT_TRUE(throwsNaming([&] { args.requireNoPositional(); },
 *                              "unexpected argument"));
 */

#ifndef CMPCACHE_TESTS_CONFIG_ERROR_HH
#define CMPCACHE_TESTS_CONFIG_ERROR_HH

#include <gtest/gtest.h>

#include <string>

#include "common/error.hh"

namespace cmpcache
{

/** Passes when @p err is a Config error whose message contains
 * @p needle. */
inline ::testing::AssertionResult
isConfigError(const SimError &err, const std::string &needle)
{
    if (err.kind == SimErrorKind::Config
        && err.message.find(needle) != std::string::npos)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << toString(err.kind) << " error '" << err.message
           << "' does not name '" << needle << "'";
}

/** Passes when @p r failed with a Config error naming @p needle. */
template <typename T>
::testing::AssertionResult
failsNaming(const Expected<T> &r, const std::string &needle)
{
    if (r.ok())
        return ::testing::AssertionFailure() << "no error";
    return isConfigError(r.error(), needle);
}

/** Passes when @p fn throws a Config SimException naming @p needle. */
template <typename Fn>
::testing::AssertionResult
throwsNaming(Fn &&fn, const std::string &needle)
{
    try {
        fn();
    } catch (const SimException &e) {
        return isConfigError(e.error(), needle);
    }
    return ::testing::AssertionFailure() << "no SimException";
}

} // namespace cmpcache

#endif // CMPCACHE_TESTS_CONFIG_ERROR_HH
