/**
 * @file
 * Textual configuration for SystemConfig: simple "key = value" lines
 * ('#' comments), so whole experiments live in version-controllable
 * files. One key table drives parsing, saving and the key list; the
 * same keys work as positional KEY=VALUE overrides to `cmpcache
 * sweep` and `cmpcache serve`, and `cmpcache help config` prints the
 * effective configuration in this format.
 *
 * Example:
 *
 *     # paper machine, WBHT policy at high pressure
 *     policy            = wbht
 *     cpu.outstanding   = 6
 *     wbht.entries      = 32768
 *     retry.window      = 250000
 *     retry.threshold   = 100
 *     l2.size_bytes     = 2097152
 *
 * Values follow parseInto()'s rules (common/cli.hh), the same as
 * --options and wl.* keys. Malformed input (unknown keys, non-numeric
 * values, integers the target field cannot hold, lines without '=')
 * surfaces as a structured SimError (kind Config, or Io for an
 * unreadable file) naming the offending key and line, never a process
 * exit -- one bad sweep cell must not take the grid down with it.
 */

#ifndef CMPCACHE_SIM_CONFIG_IO_HH
#define CMPCACHE_SIM_CONFIG_IO_HH

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "sim/system_config.hh"

namespace cmpcache
{

/** Apply one "key", "value" pair; SimError (Config) on unknown keys
 * or malformed values. */
Expected<void> applyConfigOption(SystemConfig &cfg,
                                 const std::string &key,
                                 const std::string &value);

/** Parse "key = value" lines from a stream into @p cfg; errors name
 * the line number. */
Expected<void> loadConfig(SystemConfig &cfg, std::istream &is);

/** Parse a config file; SimError (Io) if unreadable. */
Expected<void> loadConfigFile(SystemConfig &cfg,
                              const std::string &path);

/** Write @p cfg out in the same format (round-trippable). */
void saveConfig(const SystemConfig &cfg, std::ostream &os);

/**
 * The (key, value) pairs, in key order, whose saved value differs
 * from a default SystemConfig's: applying them to a default config
 * reproduces @p cfg's saveConfig text.
 */
std::vector<std::pair<std::string, std::string>>
changedConfigKeys(const SystemConfig &cfg);

/** All recognized keys (driver --help text, tests). */
const std::vector<std::string> &configKeys();

} // namespace cmpcache

#endif // CMPCACHE_SIM_CONFIG_IO_HH
