/**
 * @file
 * Simultaneous multi-vector access — the paper's stated future
 * work, built on the multi-port memory extension.
 *
 * Two decoupled pipelines each LOAD one in-window vector at the
 * same time.  On the matched memory (aggregate bandwidth = one
 * element per cycle) they serialize; on the M = T^2 memory, placed
 * in different 2^y blocks (hence different sections), both run at
 * the single-vector minimum — the quantitative form of the Sec. 5E
 * remark that extra modules are justified by simultaneous access.
 *
 * Run: ./multi_vector
 */

#include <iostream>

#include "common/table.h"
#include "core/access_unit.h"
#include "memsys/memory_system.h"
#include "theory/theory.h"

using namespace cfva;

namespace {

void
show(const char *title, const VectorAccessUnit &unit)
{
    const std::uint64_t len = unit.config().registerLength();
    const Cycle minimum = theory::minimumLatency(
        len, unit.config().serviceCycles());

    // Vector A: stride 1 in block 0; vector B: stride 3 in block 1.
    const auto plan_a = unit.plan(0, Stride(1), len);
    const auto plan_b = unit.plan(512, Stride(3), len);
    const auto r = simulateMultiPort(unit.memConfig(),
                                     unit.mapping(),
                                     {plan_a.stream, plan_b.stream});

    TextTable table({"port", "stride", "latency", "stalls",
                     "min-latency"});
    table.row("A", 1, r.ports[0].latency, r.ports[0].stallCycles,
              r.ports[0].conflictFree ? "yes" : "no");
    table.row("B", 3, r.ports[1].latency, r.ports[1].stallCycles,
              r.ports[1].conflictFree ? "yes" : "no");
    table.print(std::cout, title);
    std::cout << "makespan " << r.makespan << " (single-vector "
              << "minimum " << minimum << ", serialized "
              << 2 * minimum << ")\n\n";
}

} // namespace

int
main()
{
    std::cout << "Two vector LOADs issued simultaneously through "
                 "two memory ports.\n\n";

    const VectorAccessUnit matched(paperMatchedExample());
    show("Matched memory M = T = 8", matched);

    const VectorAccessUnit sectioned(paperSectionedExample());
    show("Unmatched memory M = 64, T = 8", sectioned);

    std::cout
        << "The matched system's eight modules supply exactly one\n"
           "element per cycle in aggregate, so a second concurrent\n"
           "vector doubles the effective latency no matter how\n"
           "cleverly either stream is ordered.  The 64-module\n"
           "system has 8x the aggregate bandwidth; with vectors in\n"
           "different address blocks (different sections), both\n"
           "streams sustain one element per cycle each.\n";
    return 0;
}
