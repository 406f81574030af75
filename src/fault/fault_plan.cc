#include "fault/fault_plan.hh"

#include <sstream>

#include "common/cli.hh"

namespace cmpcache
{

namespace
{

struct KindInfo
{
    FaultKind kind;
    const char *name;
    /** Default argument when the spec omits one. */
    std::uint64_t defaultArg;
    /** Argument is a permille and must stay <= 1000. */
    bool permille;
};

constexpr KindInfo kKinds[] = {
    {FaultKind::L3Retry, "l3_retry", 1000, true},
    {FaultKind::Nack, "nack", 1000, true},
    {FaultKind::Delay, "delay", 8, false},
    {FaultKind::DropSnarf, "drop_snarf", 1000, true},
    {FaultKind::DisableWbht, "disable_wbht", 0, false},
    {FaultKind::DisableSnarf, "disable_snarf", 0, false},
    {FaultKind::WbBlindSpot, "wb_blind_spot", 0, false},
};

const KindInfo *
kindByName(const std::string &name)
{
    for (const auto &k : kKinds)
        if (name == k.name)
            return &k;
    return nullptr;
}

const KindInfo &
kindInfo(FaultKind kind)
{
    for (const auto &k : kKinds)
        if (k.kind == kind)
            return k;
    return kKinds[0]; // unreachable: every kind is in the table
}

SimError
planError(std::size_t window, const std::string &what)
{
    return SimError(SimErrorKind::Config,
                    "fault plan window " + std::to_string(window + 1)
                        + ": " + what);
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string item;
    while (std::getline(is, item, sep))
        out.push_back(item);
    return out;
}

} // namespace

const char *
toString(FaultKind k)
{
    return kindInfo(k).name;
}

const FaultWindow *
FaultPlan::active(FaultKind kind, Tick now) const
{
    for (const auto &w : windows)
        if (w.kind == kind && w.covers(now))
            return &w;
    return nullptr;
}

Expected<FaultPlan>
parseFaultPlan(const std::string &spec)
{
    FaultPlan plan;
    if (spec.empty())
        return plan;

    const auto entries = split(spec, ';');
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const std::string &entry = entries[i];
        if (entry.empty())
            continue; // tolerate a trailing ';'
        const auto parts = split(entry, ':');
        if (parts.size() < 3 || parts.size() > 4)
            return planError(i, "expected kind:from:until[:arg], got '"
                                    + entry + "'");
        const KindInfo *info = kindByName(parts[0]);
        if (!info)
            return planError(i, "unknown fault kind '" + parts[0]
                                    + "' (expected l3_retry, nack, "
                                      "delay, drop_snarf, "
                                      "disable_wbht, disable_snarf or "
                                      "wb_blind_spot)");
        FaultWindow w;
        w.kind = info->kind;
        if (!parseInto(w.from, "", parts[1]))
            return planError(i, "bad start cycle '" + parts[1] + "'");
        if (parts[2] == "end") {
            w.until = MaxTick;
        } else if (!parseInto(w.until, "", parts[2])) {
            return planError(i, "bad end cycle '" + parts[2]
                                    + "' (number or 'end')");
        }
        if (w.until <= w.from) {
            // Name the kind and bounds: a degenerate window would
            // otherwise read as "injection configured" yet never fire.
            return planError(
                i, "degenerate " + std::string(info->name) + " window ["
                       + std::to_string(w.from) + ", " + parts[2]
                       + ") is empty (until <= from), so it would "
                         "never fire");
        }
        w.arg = info->defaultArg;
        if (parts.size() == 4) {
            if (!parseInto(w.arg, "", parts[3]))
                return planError(i, "bad argument '" + parts[3] + "'");
            if (info->permille && w.arg > 1000)
                return planError(i, "permille argument "
                                        + parts[3] + " exceeds 1000");
            if (w.kind == FaultKind::Delay && w.arg == 0)
                return planError(i, "delay needs a positive cycle "
                                    "count");
        }
        plan.windows.push_back(w);
    }
    return plan;
}

std::string
formatFaultPlan(const FaultPlan &plan)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < plan.windows.size(); ++i) {
        const FaultWindow &w = plan.windows[i];
        if (i)
            os << ";";
        os << toString(w.kind) << ":" << w.from << ":";
        if (w.until == MaxTick)
            os << "end";
        else
            os << w.until;
        if (w.arg != kindInfo(w.kind).defaultArg)
            os << ":" << w.arg;
    }
    return os.str();
}

} // namespace cmpcache
