#include "common/cli.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace cmpcache
{

namespace cli_detail
{

Expected<std::uint64_t>
parseUnsigned(const std::string &what, const std::string &text,
              std::uint64_t max)
{
    // For an unsigned type from_chars takes decimal digits only: no
    // sign, space or base prefix, and it reports overflow.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc() && stop == end && v <= max)
        return v;
    return SimError(SimErrorKind::Config,
                    cstr(what, " expects an integer from 0 to ", max,
                         ", got '", text, "'"));
}

Expected<bool>
parseBool(const std::string &what, const std::string &text)
{
    if (text == "true" || text == "1" || text == "yes" || text == "on")
        return true;
    if (text == "false" || text == "0" || text == "no" || text == "off")
        return false;
    return SimError(SimErrorKind::Config,
                    cstr(what, " expects a boolean, got '", text, "'"));
}

Expected<double>
parseFinite(const std::string &what, const std::string &text)
{
    if (!text.empty()
        && text.find_first_not_of("0123456789.eE+-")
               == std::string::npos) {
        char *end = nullptr;
        const double d = std::strtod(text.c_str(), &end);
        if (end == text.c_str() + text.size() && std::isfinite(d))
            return d;
    }
    return SimError(SimErrorKind::Config,
                    cstr(what, " expects a finite number, got '", text,
                         "'"));
}

} // namespace cli_detail

CliArgs::CliArgs(int argc, const char *const *argv,
                 bool allow_subcommand)
{
    int first = 1;
    if (allow_subcommand && argc > 1) {
        const std::string arg = argv[1];
        if (arg.rfind("--", 0) != 0
            && arg.find('=') == std::string::npos) {
            subcommand_ = arg;
            first = 2;
        }
    }
    for (int i = first; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) {
            const auto eq = arg.find('=');
            if (eq == std::string::npos) {
                options_[arg.substr(2)] = "true";
            } else {
                options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
            }
        } else {
            positional_.push_back(std::move(arg));
        }
    }
}

bool
CliArgs::has(const std::string &key) const
{
    return options_.count(key) > 0;
}

std::string
CliArgs::getString(const std::string &key, const std::string &def) const
{
    const auto it = options_.find(key);
    return it == options_.end() ? def : it->second;
}

void
CliArgs::requireKnown(std::initializer_list<std::string_view> known) const
{
    for (const auto &[key, value] : options_) {
        if (std::find(known.begin(), known.end(), key) != known.end())
            continue;
        throw SimException(
            SimErrorKind::Config,
            subcommand_.empty()
                ? cstr("unknown option --", key)
                : cstr("unknown option --", key, " for '", subcommand_,
                       "'"));
    }
}

void
CliArgs::requireNoPositional() const
{
    if (!positional_.empty()) {
        throw SimException(SimErrorKind::Config,
                           cstr("unexpected argument '",
                                positional_.front(), "'"));
    }
}

} // namespace cmpcache
