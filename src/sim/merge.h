/**
 * @file
 * Shard-output merging: N shard CSV/JSON files -> the canonical
 * unsharded report.
 *
 * Shards are contiguous job-order slices (ShardSpec), and the
 * stream sinks emit them with exactly the canonical formatting, so
 * merging is pure concatenation: keep the first CSV header and
 * append the rows of every shard in shard order; splice the JSON
 * array bodies back together.  The result is byte-identical to the
 * file an unsharded run would have written — enforced by
 * tests/test_sweep_stream.cc and the CI sharded cross-check.
 *
 * The helpers live in the library (not just tools/cfva_merge) so
 * the differential tests exercise the exact code the tool runs.
 */

#ifndef CFVA_SIM_MERGE_H
#define CFVA_SIM_MERGE_H

#include <iosfwd>
#include <vector>

namespace cfva::sim {

/**
 * Concatenates shard CSVs in shard order.  Every shard must carry
 * the same header line — mixed schemas (e.g. shards written by
 * builds before and after a column was added) fail with a
 * diagnostic naming both headers; only the first is kept.  The
 * check compares headers verbatim, so it is forward-compatible
 * with any future column set.
 */
void mergeCsv(std::ostream &out,
              const std::vector<std::istream *> &shards);

/**
 * Splices shard JSON arrays into one array, preserving the
 * canonical writeJson byte layout.  Empty shards ("[]") contribute
 * nothing; a shard without an array is fatal, and shards whose
 * first row carries a different field-name schema than the earlier
 * shards fail with a diagnostic naming both field lists.
 */
void mergeJson(std::ostream &out,
               const std::vector<std::istream *> &shards);

} // namespace cfva::sim

#endif // CFVA_SIM_MERGE_H
