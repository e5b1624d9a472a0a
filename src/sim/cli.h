/**
 * @file
 * Strict parsing helpers for list-valued sweep CLI flags.
 *
 * The tools' original ad-hoc splitter silently dropped empty items
 * and accepted duplicates, so "--kinds matched,,matched" ran a
 * doubled grid and "--tunes 3," hid a typo.  These helpers make
 * both hard errors that name the flag and the offending token, and
 * live in the library (not the tool) so CLI-adjacent tests can pin
 * the behavior without spawning a process.
 */

#ifndef CFVA_SIM_CLI_H
#define CFVA_SIM_CLI_H

#include <string>
#include <vector>

#include "sim/scenario.h"

namespace cfva::sim {

/**
 * Splits comma-separated @p arg into items, rejecting (via
 * cfva_fatal, naming @p flag and the offending token) an empty
 * list, empty items (leading/trailing/doubled commas), and —
 * unless @p allowDuplicates — repeated items.
 */
std::vector<std::string>
splitFlagList(const std::string &flag, const std::string &arg,
              bool allowDuplicates = false);

/**
 * Parses a --port-mix value like "1,3/1,-1" into one PortMix per
 * '/'-separated group.  Rejects empty groups, empty items, zero or
 * out-of-range multipliers, and duplicate mixes across groups.
 * Duplicate multipliers WITHIN a group stay legal — "1,1,2" is a
 * meaningful traffic pattern (two clone ports plus a doubler).
 */
std::vector<PortMix>
parsePortMixFlag(const std::string &flag, const std::string &arg);

} // namespace cfva::sim

#endif // CFVA_SIM_CLI_H
