/**
 * @file
 * Machine-readable experiment results: the JSON writer for
 * ExperimentResult records (see docs/sweep.md). The readers are the
 * Python scripts (scripts/reproduce.py, cmpbench/run.py).
 *
 * Emission is deterministic: fixed key order, integers printed
 * exactly, doubles printed with 17 significant digits so a reader
 * gets every field back bit for bit.
 *
 * Result objects are versioned: emission writes
 * "schemaVersion": kResultSchemaVersion as the first field.
 */

#ifndef CMPCACHE_SIM_RESULT_JSON_HH
#define CMPCACHE_SIM_RESULT_JSON_HH

#include <iosfwd>
#include <string>

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

} // namespace cmpcache

#endif // CMPCACHE_SIM_RESULT_JSON_HH
