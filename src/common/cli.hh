/**
 * @file
 * The one way user input becomes values: parseInto() for every
 * --option, config key, wl.* key and fault-plan number, and CliArgs,
 * the --key=value command-line parser of the cmpcache tool and the
 * examples.
 *
 * Bad input is a SimError of kind Config: parseInto() returns it, and
 * CliArgs throws it as a SimException, which the program's main()
 * reports once as "error (config): ..." and turns into exit status 1.
 */

#ifndef CMPCACHE_COMMON_CLI_HH
#define CMPCACHE_COMMON_CLI_HH

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hh"

namespace cmpcache
{

namespace cli_detail
{
Expected<std::uint64_t> parseUnsigned(const std::string &what,
                                      const std::string &text,
                                      std::uint64_t max);
Expected<bool> parseBool(const std::string &what,
                         const std::string &text);
Expected<double> parseFinite(const std::string &what,
                             const std::string &text);
} // namespace cli_detail

/**
 * Parse @p text into @p field under the rule its type picks:
 *
 *  - unsigned integers: plain decimal digits whose value fits the
 *    field (no sign, space, suffix or hex: std::stoull would wrap
 *    "-1" and stop silently at "12abc");
 *  - bool: true, 1, yes, on or false, 0, no, off;
 *  - double: a finite decimal number, the whole token (no suffix,
 *    space, hex, nan or inf);
 *  - std::string: the text as is.
 *
 * A bad value leaves @p field alone and returns a Config error that
 * starts with @p what ("option --refs", "config key 'l2.assoc'").
 */
template <typename T>
Expected<void>
parseInto(T &field, const std::string &what, const std::string &text)
{
    const auto set = [&field](auto parsed) -> Expected<void> {
        if (!parsed)
            return std::move(parsed.error());
        field = static_cast<T>(*parsed);
        return {};
    };
    if constexpr (std::is_same_v<T, std::string>) {
        field = text;
        return {};
    } else if constexpr (std::is_same_v<T, bool>) {
        return set(cli_detail::parseBool(what, text));
    } else if constexpr (std::is_floating_point_v<T>) {
        return set(cli_detail::parseFinite(what, text));
    } else {
        static_assert(std::is_unsigned_v<T>,
                      "parseInto takes unsigned, bool, double or "
                      "string fields");
        return set(cli_detail::parseUnsigned(
            what, text, std::numeric_limits<T>::max()));
    }
}

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
     * The --@p key option parsed into a @p T under parseInto()'s rule
     * (a bare "--flag" is "true"), or @p def when it is absent; a bad
     * value throws SimException naming the option.
     */
    template <typename T>
    T
    get(const std::string &key, T def) const
    {
        const auto it = options_.find(key);
        if (it != options_.end())
            orThrow(parseInto(def, "option --" + key, it->second));
        return def;
    }

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /**
     * Throw SimException naming an --option not in @p known (the
     * first by name when there are several). Drivers pass the options
     * their help text documents, so a typo or a retired flag fails
     * loudly instead of being silently ignored.
     */
    void requireKnown(std::initializer_list<std::string_view> known) const;

    /** Throw SimException naming the first positional argument, for
     * drivers that take only --options. */
    void requireNoPositional() const;

  private:
    std::string subcommand_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

} // namespace cmpcache

#endif // CMPCACHE_COMMON_CLI_HH
