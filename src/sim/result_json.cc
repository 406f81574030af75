#include "sim/result_json.hh"

#include <ostream>
#include <sstream>

namespace cmpcache
{

void
writeResultJson(std::ostream &os, const ExperimentResult &r,
                unsigned indent)
{
    const std::string pad(indent, ' ');
    // Starts the next field's line; its value follows.
    const auto key = [&](const char *name) -> std::ostream & {
        return os << ",\n" << pad << "  \"" << name << "\": ";
    };
    const auto str = [&](const char *name, const std::string &v) {
        key(name) << '"' << jsonEscape(v) << '"';
    };
    const auto dbl = [&](const char *name, double v) {
        key(name) << jsonDouble(v);
    };

    os << pad << "{\n";
    os << pad << "  \"schemaVersion\": " << kResultSchemaVersion;
    str("workload", r.workload);
    str("policy", r.policy);
    key("maxOutstanding") << r.maxOutstanding;
    key("execTime") << r.execTime;
    dbl("wbhtCorrectPct", r.wbhtCorrectPct);
    dbl("l3LoadHitRatePct", r.l3LoadHitRatePct);
    key("l2WbRequests") << r.l2WbRequests;
    key("l3Retries") << r.l3Retries;
    key("offChipAccesses") << r.offChipAccesses;
    dbl("wbSnarfedPct", r.wbSnarfedPct);
    dbl("snarfedUsedLocallyPct", r.snarfedUsedLocallyPct);
    dbl("snarfedForInterventionPct", r.snarfedForInterventionPct);
    dbl("l2HitRatePct", r.l2HitRatePct);
    dbl("cleanWbRedundantPct", r.cleanWbRedundantPct);
    dbl("wbReusedTotalPct", r.wbReusedTotalPct);
    dbl("wbReusedAcceptedPct", r.wbReusedAcceptedPct);
    key("wbAborted") << r.wbAborted;
    key("memReads") << r.memReads;
    key("interventions") << r.interventions;
    key("busRetries") << r.busRetries;
    os << "\n" << pad << "}";
}

std::string
resultToJson(const ExperimentResult &r)
{
    std::ostringstream os;
    writeResultJson(os, r);
    return os.str();
}

} // namespace cmpcache
