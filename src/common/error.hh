/**
 * @file
 * Structured error handling for recoverable failures.
 *
 * The simulator distinguishes two failure families:
 *
 *  - Programming errors (broken invariants) stay on cmp_assert /
 *    cmp_panic: they abort, because continuing would corrupt state.
 *
 *  - Input and runtime errors -- malformed traces, nonsense configs,
 *    watchdog trips, tick-budget overruns -- are *recoverable* at the
 *    granularity of one simulation: a parallel sweep must report the
 *    failing cell and finish the rest of the grid. These travel as
 *    SimError values, either inside an Expected<T> return (parser-style
 *    APIs) or inside a SimException (failures that must unwind out of
 *    the event kernel mid-run).
 *
 * User input errors are SimErrors too: a bad --option, config key,
 * wl.* key, workload or policy name, or an unreadable file. Library
 * code never ends the process. Each program's main() catches SimException
 * in one place, prints "error (<kind>): <message>" and exits 1
 * (cmpcache: 2 for a conformance trip); cmpcache reports any other
 * escaping std::exception as kind internal, also with exit 1.
 */

#ifndef CMPCACHE_COMMON_ERROR_HH
#define CMPCACHE_COMMON_ERROR_HH

#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

namespace cmpcache
{

/** Coarse failure category; names appear in results JSON and logs. */
enum class SimErrorKind
{
    Io,       ///< unreadable / unwritable file
    Trace,    ///< malformed trace input
    Config,   ///< unknown key, bad value, or cross-field inconsistency
    Watchdog, ///< forward-progress watchdog tripped (live/deadlock)
    Budget,   ///< tick or wall-clock budget exhausted
    Conformance, ///< coherence conformance oracle detected stale data
    Internal, ///< unexpected exception escaping a simulation
};

inline const char *
toString(SimErrorKind k)
{
    switch (k) {
      case SimErrorKind::Io:
        return "io";
      case SimErrorKind::Trace:
        return "trace";
      case SimErrorKind::Config:
        return "config";
      case SimErrorKind::Watchdog:
        return "watchdog";
      case SimErrorKind::Budget:
        return "budget";
      case SimErrorKind::Conformance:
        return "conformance";
      case SimErrorKind::Internal:
        return "internal";
    }
    return "unknown";
}

/** One recoverable failure: a category plus a human-readable cause. */
struct SimError
{
    SimErrorKind kind = SimErrorKind::Internal;
    std::string message;

    SimError() = default;
    SimError(SimErrorKind k, std::string msg)
        : kind(k), message(std::move(msg))
    {
    }
};

/**
 * A value or a SimError. Minimal expected-style result type: no
 * exceptions on the success path, and the error carries enough context
 * to be reported verbatim.
 *
 *     Expected<std::vector<TraceRecord>> r = readTrace(is);
 *     if (!r)
 *         return std::move(r.error());
 *     use(r.value());
 */
template <typename T>
class Expected
{
  public:
    Expected(T value) : v_(std::move(value)) {}
    Expected(SimError err) : v_(std::move(err)) {}

    bool ok() const { return std::holds_alternative<T>(v_); }
    explicit operator bool() const { return ok(); }

    T &value() { return std::get<T>(v_); }
    const T &value() const { return std::get<T>(v_); }
    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

    SimError &error() { return std::get<SimError>(v_); }
    const SimError &error() const { return std::get<SimError>(v_); }

  private:
    std::variant<T, SimError> v_;
};

/** Expected<void>: success carries no value. */
template <>
class Expected<void>
{
  public:
    Expected() = default;
    Expected(SimError err) : err_(std::move(err)), ok_(false) {}

    bool ok() const { return ok_; }
    explicit operator bool() const { return ok_; }

    SimError &error() { return err_; }
    const SimError &error() const { return err_; }

  private:
    SimError err_;
    bool ok_ = true;
};

/**
 * SimError as an exception, for failures that surface deep inside a
 * running simulation (config validation at system construction, the
 * watchdog, the maxTicks budget) and must unwind out of the event loop.
 * Sweep workers catch it per cell; CLIs catch it at top level.
 */
class SimException : public std::runtime_error
{
  public:
    explicit SimException(SimError err)
        : std::runtime_error(err.message), err_(std::move(err))
    {
    }

    SimException(SimErrorKind kind, const std::string &message)
        : SimException(SimError(kind, message))
    {
    }

    const SimError &error() const { return err_; }
    SimErrorKind kind() const { return err_.kind; }

  private:
    SimError err_;
};

/**
 * @p r's value, or its error thrown as a SimException: for callers
 * that let a parse error unwind to main().
 */
template <typename T>
T
orThrow(Expected<T> r)
{
    if (!r)
        throw SimException(std::move(r.error()));
    if constexpr (!std::is_void_v<T>)
        return std::move(r.value());
}

} // namespace cmpcache

#endif // CMPCACHE_COMMON_ERROR_HH
