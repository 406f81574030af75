/**
 * @file
 * Machine-readable experiment results: JSON emission and strict
 * parsing of ExperimentResult records (see docs/sweep.md).
 *
 * Emission is deterministic: fixed key order, integers printed
 * exactly, doubles printed with 17 significant digits so a
 * write/parse round trip reproduces every field bit-for-bit.
 *
 * Result objects are versioned: emission writes
 * "schemaVersion": kResultSchemaVersion as the first field, and
 * parsing requires that field with that value.
 */

#ifndef CMPCACHE_SIM_RESULT_JSON_HH
#define CMPCACHE_SIM_RESULT_JSON_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/experiment.hh"

namespace cmpcache
{

/** Version written into every emitted result object. */
constexpr std::uint64_t kResultSchemaVersion = 2;

/**
 * Write one result as a JSON object. Every line is prefixed by
 * @p indent spaces (the opening brace included), so the object can be
 * embedded in an array at any nesting depth.
 */
void writeResultJson(std::ostream &os, const ExperimentResult &r,
                     unsigned indent = 0);

/** writeResultJson into a string. */
std::string resultToJson(const ExperimentResult &r);

/**
 * Parse a JSON object produced by writeResultJson. Strict: malformed
 * JSON, a missing field, or a wrong-typed field fails the parse.
 * @param error receives a diagnostic on failure (may be null)
 * @return true on success
 */
bool parseResultJson(const std::string &text, ExperimentResult &out,
                     std::string *error = nullptr);

/**
 * One cell read back from a sweep results file. Cells that failed
 * (the writer's {"status": "error", ...} form) carry ok = false, the
 * structured error, and identity-only result fields
 * (workload/policy/maxOutstanding); everything else in result is
 * default-initialized.
 */
struct SweepCellOutcome
{
    bool ok = true;
    std::string errorKind; ///< SimErrorKind name; empty when ok
    std::string error;     ///< failure message; empty when ok
    ExperimentResult result;
};

/**
 * Parse a whole sweep results file ("cmpcache-sweep-results-v2"):
 * checks the schema tag and returns every cell of the "results"
 * array, failed ones included, in file order.
 */
bool parseSweepResultsJson(const std::string &text,
                           std::vector<SweepCellOutcome> &out,
                           std::string *error = nullptr);

} // namespace cmpcache

#endif // CMPCACHE_SIM_RESULT_JSON_HH
