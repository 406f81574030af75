/**
 * @file
 * Minimal --key=value command-line option parsing for the example and
 * benchmark drivers.
 */

#ifndef CMPCACHE_COMMON_CLI_HH
#define CMPCACHE_COMMON_CLI_HH

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cmpcache
{

/**
 * The one unsigned-integer rule for --options and config values:
 * plain decimal digits that fit in 64 bits. Signs, spaces, hex and
 * trailing characters are all rejected (std::stoull would wrap "-1"
 * and stop silently at "12abc").
 */
std::optional<std::uint64_t> parseUnsigned(const std::string &s);

/**
 * Parses "--key=value" / "--flag" style arguments. Unknown positional
 * arguments are collected in order.
 *
 * Multi-tool drivers (e.g. the `cmpcache` binary) can additionally
 * treat the first argument as a subcommand: when @p allow_subcommand
 * is set and argv[1] is a bare word (no "--" prefix, no '='), it is
 * consumed as the subcommand instead of a positional.
 */
class CliArgs
{
  public:
    CliArgs(int argc, const char *const *argv,
            bool allow_subcommand = false);

    /** Subcommand name; empty when none was given/allowed. */
    const std::string &subcommand() const { return subcommand_; }

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def) const;

    /**
     * An unsigned integer option under parseUnsigned()'s rule; fatal
     * error (exit 1) naming the option when the value is malformed or
     * does not fit in T.
     */
    template <typename T = std::uint64_t>
    T
    getUnsigned(const std::string &key, T def) const
    {
        return static_cast<T>(
            getUnsignedMax(key, def, std::numeric_limits<T>::max()));
    }

    bool getBool(const std::string &key, bool def) const;

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /**
     * Fatal error (exit 1) naming an --option not in @p known (the
     * first by name when there are several). Drivers pass the options
     * their help text documents, so a typo or a retired flag fails
     * loudly instead of being silently ignored.
     */
    void requireKnown(std::initializer_list<std::string_view> known) const;

    /** Fatal error (exit 1) naming the first positional argument, for
     * drivers that take only --options. */
    void requireNoPositional() const;

  private:
    std::uint64_t getUnsignedMax(const std::string &key,
                                 std::uint64_t def,
                                 std::uint64_t max) const;

    std::string subcommand_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

} // namespace cmpcache

#endif // CMPCACHE_COMMON_CLI_HH
