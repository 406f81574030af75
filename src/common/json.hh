/**
 * @file
 * JSON emission helpers shared by the result writer
 * (sim/result_json.cc), the stats, time-series and trace exporters
 * (stats/, obs/) and the sweep writer. Every program that reads the
 * JSON back is Python (scripts/, cmpbench/run.py).
 *
 * Both helpers are deterministic: jsonDouble prints 17 significant
 * digits, so a reader's strtod gets every double back bit for bit.
 */

#ifndef CMPCACHE_COMMON_JSON_HH
#define CMPCACHE_COMMON_JSON_HH

#include <string>

namespace cmpcache
{

/** JSON string escaping for emitters ("\"" -> "\\\"", etc.). */
std::string jsonEscape(const std::string &s);

/** Deterministic JSON representation of a double (17 sig. digits). */
std::string jsonDouble(double v);

} // namespace cmpcache

#endif // CMPCACHE_COMMON_JSON_HH
