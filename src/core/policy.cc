#include "core/policy.hh"

#include "common/logging.hh"

namespace cmpcache
{

const char *
toString(WbPolicy p)
{
    switch (p) {
      case WbPolicy::Baseline:
        return "baseline";
      case WbPolicy::Wbht:
        return "wbht";
      case WbPolicy::WbhtGlobal:
        return "wbht-global";
      case WbPolicy::Snarf:
        return "snarf";
      case WbPolicy::Combined:
        return "combined";
    }
    return "?";
}

Expected<WbPolicy>
wbPolicyFromString(const std::string &name)
{
    for (const auto p : kAllWbPolicies)
        if (name == toString(p))
            return p;
    return SimError(SimErrorKind::Config,
                    cstr("unknown write-back policy '", name,
                         "' (expected baseline, wbht, wbht-global, "
                         "snarf or combined)"));
}

PolicyConfig
PolicyConfig::make(WbPolicy p)
{
    PolicyConfig c;
    c.policy = p;
    return c;
}

PolicyConfig
PolicyConfig::combinedDefault()
{
    PolicyConfig c;
    c.policy = WbPolicy::Combined;
    c.wbht.entries = 16384;
    c.snarf.entries = 16384;
    return c;
}

} // namespace cmpcache
