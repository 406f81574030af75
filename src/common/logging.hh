/**
 * @file
 * Status and error reporting, in the spirit of gem5's base/logging.hh.
 *
 * panic()  - an internal invariant was violated: a simulator bug.
 *            Aborts (may dump core).
 * warn()   - something is questionable but the run can continue.
 * inform() - plain status output.
 *
 * There is no fatal(): a user error (bad configuration, unreadable
 * trace file, ...) is a SimError (common/error.hh) that travels to
 * the program's main(), which reports it and picks the exit status.
 */

#ifndef CMPCACHE_COMMON_LOGGING_HH
#define CMPCACHE_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace cmpcache
{

/** Stream-concatenate any set of arguments into a std::string. */
template <typename... Args>
std::string
cstr(Args &&...args)
{
    std::ostringstream os;
    ((os << args), ...);
    return os.str();
}

namespace logging_detail
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Redirect warn()/inform() output (tests use this); null = stderr. */
void setLogSink(std::ostream *sink);

} // namespace logging_detail

#define cmp_panic(...)                                                     \
    ::cmpcache::logging_detail::panicImpl(__FILE__, __LINE__,              \
                                          ::cmpcache::cstr(__VA_ARGS__))

template <typename... Args>
void
warn(Args &&...args)
{
    logging_detail::warnImpl(cstr(std::forward<Args>(args)...));
}

template <typename... Args>
void
inform(Args &&...args)
{
    logging_detail::informImpl(cstr(std::forward<Args>(args)...));
}

/** panic() if the condition does not hold. */
#define cmp_assert(cond, ...)                                              \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::cmpcache::logging_detail::panicImpl(                         \
                __FILE__, __LINE__,                                        \
                ::cmpcache::cstr("assertion '" #cond "' failed. ",         \
                                 ##__VA_ARGS__));                          \
        }                                                                  \
    } while (0)

} // namespace cmpcache

#endif // CMPCACHE_COMMON_LOGGING_HH
