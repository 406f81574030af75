#include "sim/result_json.hh"

#include <cstdlib>
#include <ostream>
#include <sstream>
#include <utility>

namespace cmpcache
{

namespace
{

/**
 * The serialized fields, in emission order. Keeping the three kinds
 * in one table guarantees writer and parser agree on the schema.
 */
enum class FieldKind
{
    Str,
    U32,
    U64,
    Dbl
};

struct FieldDef
{
    const char *key;
    FieldKind kind;
    // exactly one of these is meaningful, per kind
    std::string ExperimentResult::*str = nullptr;
    unsigned ExperimentResult::*u32 = nullptr;
    std::uint64_t ExperimentResult::*u64 = nullptr;
    double ExperimentResult::*dbl = nullptr;
};

const std::vector<FieldDef> &
fields()
{
    using R = ExperimentResult;
    static const std::vector<FieldDef> defs = {
        {"workload", FieldKind::Str, &R::workload, nullptr, nullptr,
         nullptr},
        {"policy", FieldKind::Str, &R::policy, nullptr, nullptr,
         nullptr},
        {"maxOutstanding", FieldKind::U32, nullptr, &R::maxOutstanding,
         nullptr, nullptr},
        {"execTime", FieldKind::U64, nullptr, nullptr, &R::execTime,
         nullptr},
        {"wbhtCorrectPct", FieldKind::Dbl, nullptr, nullptr, nullptr,
         &R::wbhtCorrectPct},
        {"l3LoadHitRatePct", FieldKind::Dbl, nullptr, nullptr, nullptr,
         &R::l3LoadHitRatePct},
        {"l2WbRequests", FieldKind::U64, nullptr, nullptr,
         &R::l2WbRequests, nullptr},
        {"l3Retries", FieldKind::U64, nullptr, nullptr, &R::l3Retries,
         nullptr},
        {"offChipAccesses", FieldKind::U64, nullptr, nullptr,
         &R::offChipAccesses, nullptr},
        {"wbSnarfedPct", FieldKind::Dbl, nullptr, nullptr, nullptr,
         &R::wbSnarfedPct},
        {"snarfedUsedLocallyPct", FieldKind::Dbl, nullptr, nullptr,
         nullptr, &R::snarfedUsedLocallyPct},
        {"snarfedForInterventionPct", FieldKind::Dbl, nullptr, nullptr,
         nullptr, &R::snarfedForInterventionPct},
        {"l2HitRatePct", FieldKind::Dbl, nullptr, nullptr, nullptr,
         &R::l2HitRatePct},
        {"cleanWbRedundantPct", FieldKind::Dbl, nullptr, nullptr,
         nullptr, &R::cleanWbRedundantPct},
        {"wbReusedTotalPct", FieldKind::Dbl, nullptr, nullptr, nullptr,
         &R::wbReusedTotalPct},
        {"wbReusedAcceptedPct", FieldKind::Dbl, nullptr, nullptr,
         nullptr, &R::wbReusedAcceptedPct},
        {"wbAborted", FieldKind::U64, nullptr, nullptr, &R::wbAborted,
         nullptr},
        {"memReads", FieldKind::U64, nullptr, nullptr, &R::memReads,
         nullptr},
        {"interventions", FieldKind::U64, nullptr, nullptr,
         &R::interventions, nullptr},
        {"busRetries", FieldKind::U64, nullptr, nullptr, &R::busRetries,
         nullptr},
    };
    return defs;
}

bool
fail(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
    return false;
}

/** Require "schemaVersion": kResultSchemaVersion. */
bool
checkSchemaVersion(const JsonValue &v, std::string *error)
{
    const JsonValue *sv = v.get("schemaVersion");
    if (!sv)
        return fail(error, "missing field 'schemaVersion'");
    if (sv->kind != JsonValue::Kind::Number
        || sv->number != std::to_string(kResultSchemaVersion))
        return fail(error, "unsupported schemaVersion "
                               + (sv->kind == JsonValue::Kind::Number
                                      ? sv->number
                                      : std::string("(not a number)"))
                               + " (this build reads "
                               + std::to_string(kResultSchemaVersion)
                               + ")");
    return true;
}

bool
resultFromValue(const JsonValue &v, ExperimentResult &out,
                std::string *error)
{
    if (v.kind != JsonValue::Kind::Object)
        return fail(error, "result is not a JSON object");
    if (!checkSchemaVersion(v, error))
        return false;
    ExperimentResult r;
    for (const auto &f : fields()) {
        const JsonValue *fv = v.get(f.key);
        if (!fv)
            return fail(error,
                        std::string("missing field '") + f.key + "'");
        if (f.kind == FieldKind::Str) {
            if (fv->kind != JsonValue::Kind::String)
                return fail(error, std::string("field '") + f.key
                                       + "' must be a string");
            r.*(f.str) = fv->string;
            continue;
        }
        if (fv->kind != JsonValue::Kind::Number)
            return fail(error, std::string("field '") + f.key
                                   + "' must be a number");
        if (f.kind == FieldKind::Dbl) {
            r.*(f.dbl) = std::strtod(fv->number.c_str(), nullptr);
            continue;
        }
        // Integer fields: reject fractions and negatives outright.
        if (fv->number.find_first_of(".eE-") != std::string::npos)
            return fail(error, std::string("field '") + f.key
                                   + "' must be a non-negative "
                                     "integer, got "
                                   + fv->number);
        const std::uint64_t u =
            std::strtoull(fv->number.c_str(), nullptr, 10);
        if (f.kind == FieldKind::U64)
            r.*(f.u64) = u;
        else
            r.*(f.u32) = static_cast<unsigned>(u);
    }
    out = r;
    return true;
}

/** Is @p v a writer-emitted {"status": "error", ...} cell? */
bool
isErrorCell(const JsonValue &v)
{
    if (v.kind != JsonValue::Kind::Object)
        return false;
    const JsonValue *st = v.get("status");
    return st && st->kind == JsonValue::Kind::String
           && st->string == "error";
}

bool
errorCellFromValue(const JsonValue &v, SweepCellOutcome &out,
                   std::string *error)
{
    if (!checkSchemaVersion(v, error))
        return false;
    SweepCellOutcome c;
    c.ok = false;
    const struct
    {
        const char *key;
        std::string *dst;
    } strs[] = {
        {"errorKind", &c.errorKind},
        {"error", &c.error},
        {"workload", &c.result.workload},
        {"policy", &c.result.policy},
    };
    for (const auto &s : strs) {
        const JsonValue *fv = v.get(s.key);
        if (!fv || fv->kind != JsonValue::Kind::String)
            return fail(error, std::string("error cell field '")
                                   + s.key
                                   + "' missing or not a string");
        *s.dst = fv->string;
    }
    const JsonValue *mo = v.get("maxOutstanding");
    if (!mo || mo->kind != JsonValue::Kind::Number
        || mo->number.find_first_of(".eE-") != std::string::npos)
        return fail(error, "error cell field 'maxOutstanding' missing "
                           "or not a non-negative integer");
    c.result.maxOutstanding = static_cast<unsigned>(
        std::strtoull(mo->number.c_str(), nullptr, 10));
    out = std::move(c);
    return true;
}

/** Schema-check a parsed sweep file and return its results array. */
const JsonValue *
sweepResultsArray(const JsonValue &v, std::string *error)
{
    if (v.kind != JsonValue::Kind::Object) {
        fail(error, "results file is not a JSON object");
        return nullptr;
    }
    const JsonValue *schema = v.get("schema");
    if (!schema || schema->kind != JsonValue::Kind::String) {
        fail(error, "missing schema tag");
        return nullptr;
    }
    if (schema->string != "cmpcache-sweep-results-v2") {
        fail(error, "unknown schema tag '" + schema->string
                        + "' (this build reads "
                          "cmpcache-sweep-results-v2)");
        return nullptr;
    }
    const JsonValue *results = v.get("results");
    if (!results || results->kind != JsonValue::Kind::Array) {
        fail(error, "missing 'results' array");
        return nullptr;
    }
    return results;
}

} // namespace

void
writeResultJson(std::ostream &os, const ExperimentResult &r,
                unsigned indent)
{
    const std::string pad(indent, ' ');
    os << pad << "{\n";
    os << pad << "  \"schemaVersion\": " << kResultSchemaVersion;
    for (const auto &f : fields()) {
        os << ",\n";
        os << pad << "  \"" << f.key << "\": ";
        switch (f.kind) {
          case FieldKind::Str:
            os << '"' << jsonEscape(r.*(f.str)) << '"';
            break;
          case FieldKind::U32:
            os << r.*(f.u32);
            break;
          case FieldKind::U64:
            os << r.*(f.u64);
            break;
          case FieldKind::Dbl:
            os << jsonDouble(r.*(f.dbl));
            break;
        }
    }
    os << "\n" << pad << "}";
}

std::string
resultToJson(const ExperimentResult &r)
{
    std::ostringstream os;
    writeResultJson(os, r);
    return os.str();
}

bool
parseResultJson(const std::string &text, ExperimentResult &out,
                std::string *error)
{
    JsonValue v;
    if (!parseJson(text, v, error))
        return false;
    return resultFromValue(v, out, error);
}

bool
parseSweepResultsJson(const std::string &text,
                      std::vector<SweepCellOutcome> &out,
                      std::string *error)
{
    JsonValue v;
    if (!parseJson(text, v, error))
        return false;
    const JsonValue *results = sweepResultsArray(v, error);
    if (!results)
        return false;
    std::vector<SweepCellOutcome> parsed;
    parsed.reserve(results->array.size());
    for (const auto &rv : results->array) {
        SweepCellOutcome c;
        if (isErrorCell(rv)) {
            if (!errorCellFromValue(rv, c, error))
                return false;
        } else if (!resultFromValue(rv, c.result, error)) {
            return false;
        }
        parsed.push_back(std::move(c));
    }
    out = std::move(parsed);
    return true;
}

} // namespace cmpcache
