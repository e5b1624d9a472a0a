/**
 * @file
 * cfva_merge: concatenate cfva_sweep shard outputs back into the
 * canonical unsharded report.
 *
 * Shards produced by `cfva_sweep --shard I/N` are contiguous
 * job-order slices with the canonical formatting, so merging them
 * in shard order (0..N-1) yields a file byte-identical to the one
 * an unsharded run writes — `cmp` against the full run is the
 * cheapest possible distributed-sweep integrity check, and CI does
 * exactly that on every merge.
 *
 *     cfva_merge --csv  merged.csv  s0.csv  s1.csv  ... sN.csv
 *     cfva_merge --json merged.json s0.json s1.json ... sN.json
 *
 * '-' as the output writes to stdout.
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "sim/merge.h"

using namespace cfva;

namespace {

void
usage(std::ostream &os)
{
    os << "usage: cfva_merge --csv|--json OUT IN0 IN1 ...\n"
          "\n"
          "Concatenates cfva_sweep shard outputs (given in shard\n"
          "order) into the canonical unsharded report.  OUT may be\n"
          "'-' for stdout.  Shards are schema-checked against each\n"
          "other (CSV header line / JSON field names) and the merge\n"
          "fails with a diagnostic rather than silently\n"
          "concatenating mixed schemas.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool csv = false, json = false;
    std::string outPath;
    std::vector<std::string> shardPaths;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(std::cout);
            return 0;
        } else if (a == "--csv") {
            csv = true;
        } else if (a == "--json") {
            json = true;
        } else if (outPath.empty()) {
            outPath = a;
        } else {
            shardPaths.push_back(a);
        }
    }
    if (csv == json) {
        usage(std::cerr);
        cfva_fatal("pick exactly one of --csv / --json");
    }
    if (outPath.empty() || shardPaths.empty()) {
        usage(std::cerr);
        cfva_fatal("need an output and at least one shard file");
    }

    std::vector<std::unique_ptr<std::ifstream>> files;
    std::vector<std::istream *> shards;
    for (const auto &path : shardPaths) {
        files.push_back(std::make_unique<std::ifstream>(
            path, std::ios::binary));
        if (!*files.back())
            cfva_fatal("cannot open shard ", path);
        shards.push_back(files.back().get());
    }

    std::ofstream outFile;
    std::ostream *out = &std::cout;
    if (outPath != "-") {
        outFile.open(outPath, std::ios::binary);
        if (!outFile)
            cfva_fatal("cannot open ", outPath, " for writing");
        out = &outFile;
    }

    if (csv)
        sim::mergeCsv(*out, shards);
    else
        sim::mergeJson(*out, shards);
    return 0;
}
