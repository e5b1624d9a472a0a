/**
 * @file
 * Strict parsing helpers for list-valued sweep CLI flags, and the
 * output-file handling cfva_sweep and cfva_merge share.
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

#include <iosfwd>
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

/**
 * True when output paths @p a and @p b name one file, so writing
 * both would destroy data: the same device and inode when both
 * exist, equal weakly_canonical paths otherwise.  "-" is the file
 * stdout is open on, so it matches itself and, when stdout is
 * redirected to a file or a pipe, every other name of that file
 * (such as /dev/stdout).  A character device such as a terminal or
 * /dev/null matches nothing.
 */
bool sameFile(const std::string &a, const std::string &b);

/** Opens output @p path ("-" = stdout) through @p file; exits 1
 *  naming the path when it cannot be opened. */
std::ostream &openOutput(const std::string &path, std::ofstream &file);

/** Flushes and closes an output openOutput opened; exits 1 naming
 *  the path if any write to it failed, so a truncated report never
 *  reads as success. */
void closeOutput(const std::string &path, std::ofstream &file);

} // namespace cfva::sim

#endif // CFVA_SIM_CLI_H
