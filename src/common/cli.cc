#include "common/cli.hh"

#include <algorithm>
#include <exception>

#include "common/logging.hh"

namespace cmpcache
{

std::optional<std::uint64_t>
parseUnsigned(const std::string &s)
{
    bool digits = !s.empty();
    for (const char c : s)
        digits = digits && c >= '0' && c <= '9';
    if (!digits)
        return std::nullopt;
    try {
        return std::stoull(s);
    } catch (const std::exception &) {
        return std::nullopt; // out of range
    }
}

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

std::uint64_t
CliArgs::getUnsignedMax(const std::string &key, std::uint64_t def,
                        std::uint64_t max) const
{
    const auto it = options_.find(key);
    if (it == options_.end())
        return def;
    const auto v = parseUnsigned(it->second);
    if (!v || *v > max) {
        cmp_fatal("option --", key, " expects an integer from 0 to ",
                  max, ", got '", it->second, "'");
    }
    return *v;
}

bool
CliArgs::getBool(const std::string &key, bool def) const
{
    const auto it = options_.find(key);
    if (it == options_.end())
        return def;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    cmp_fatal("option --", key, " expects a boolean, got '", v, "'");
}

void
CliArgs::requireKnown(std::initializer_list<std::string_view> known) const
{
    for (const auto &[key, value] : options_) {
        if (std::find(known.begin(), known.end(), key) != known.end())
            continue;
        if (subcommand_.empty())
            cmp_fatal("unknown option --", key);
        cmp_fatal("unknown option --", key, " for '", subcommand_, "'");
    }
}

void
CliArgs::requireNoPositional() const
{
    if (!positional_.empty())
        cmp_fatal("unexpected argument '", positional_.front(), "'");
}

} // namespace cmpcache
