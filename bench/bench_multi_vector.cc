/**
 * @file
 * Experiment E15 (future-work extension) — simultaneous access to
 * several vectors, the extension named in the paper's conclusions.
 *
 * Measures inter-port interference for 1, 2, and 4 simultaneous
 * in-window vector streams on the matched (M = T) and unmatched
 * (M = T^2) systems.  Quantifies the Sec. 5E remark that the extra
 * modules of an unmatched memory "can be justified by other
 * reasons, such as simultaneous access to several vectors".
 *
 * Runs on the batching path: the (system x ports) sweep is a
 * ScenarioGrid with port and port-mix axes executed by the
 * SweepEngine under the audit tier, which answers every scenario
 * with both the stepped multi-port oracle and the evaluator and
 * cross-checks them bit for bit.  Per-port worst latencies for the
 * audit come from the same unified backend via
 * VectorAccessUnit::executePorts.
 */

#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/access_unit.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "theory/theory.h"

using namespace cfva;

namespace {

/**
 * The E15 grid: both paper systems, base stride 1 with the {1, 3}
 * mix (ports alternate strides 1, 3, 1, 3 — distinct simultaneously
 * live vectors), each vector in its own 2^y = 512-address block: on
 * the sectioned mapping the blocks map to different sections, which
 * is how a real allocator would spread simultaneously-live vectors.
 */
sim::ScenarioGrid
e15Grid()
{
    sim::ScenarioGrid grid;
    grid.mappings = {paperMatchedExample(), paperSectionedExample()};
    grid.strides = {1};
    grid.portMixes = {sim::PortMix{{1, 3}}};
    grid.ports = {1, 2, 4};
    grid.randomStarts = 0;
    grid.portStagger = Addr{1} << 9;
    return grid;
}

/** Per-port detail through the unified backend for one port count. */
MultiPortResult
runPorts(const VectorAccessUnit &unit, unsigned n_ports)
{
    std::vector<std::vector<Request>> streams;
    const std::int64_t strides[2] = {1, 3};
    for (unsigned p = 0; p < n_ports; ++p) {
        streams.push_back(
            unit.plan(Addr{p} << 9, strides[p % 2], 128).stream);
    }
    return unit.executePorts(streams);
}

Cycle
worstLatency(const MultiPortResult &r)
{
    Cycle worst = 0;
    for (const auto &port : r.ports)
        worst = std::max(worst, port.latency);
    return worst;
}

} // namespace

int
main()
{
    bench::Audit audit("E15 / conclusions' future work: several "
                       "vectors at once");

    const sim::ScenarioGrid grid = e15Grid();
    sim::SweepOptions audited;
    audited.tier = TierPolicy::AuditBoth;
    sim::SweepRunStats stats;
    const sim::SweepReport oracle =
        sim::SweepEngine(audited).run(grid, &stats);

    audit.check("theory-tier sweep bit-identical to the stepped "
                "oracle (0 audit divergences)",
                stats.tierAuditDivergences == 0);

    TextTable table({"system", "ports", "makespan", "min makespan",
                     "stalls", "all min-latency"});
    for (const auto &o : oracle.outcomes) {
        table.row(o.mappingIndex == 0 ? "matched M=8"
                                      : "unmatched M=64",
                  o.ports, o.latency, o.minLatency, o.stallCycles,
                  o.conflictFree ? "yes" : "no");
    }
    table.print(std::cout,
                "In-window vectors (L = 128, minimum 137) issued "
                "simultaneously [sweep, audited]");

    const VectorAccessUnit matched(paperMatchedExample());
    const VectorAccessUnit sectioned(paperSectionedExample());
    const Cycle minimum = theory::minimumLatency(128, 8);

    // One port: both systems at the exact minimum.
    const auto one_m = runPorts(matched, 1);
    const auto one_s = runPorts(sectioned, 1);
    audit.check("single port at minimum on both systems",
                one_m.allConflictFree() && one_s.allConflictFree());

    // Two ports: a matched memory has aggregate bandwidth exactly
    // one element per cycle — two vectors fundamentally serialize —
    // while M = T^2 has headroom for 8.
    const Cycle matched2_worst = worstLatency(runPorts(matched, 2));
    const Cycle sectioned2_worst =
        worstLatency(runPorts(sectioned, 2));
    audit.check("matched memory serializes two vectors "
                "(worst >= 1.5x minimum)",
                matched2_worst >= minimum * 3 / 2);
    audit.check("unmatched memory absorbs two vectors "
                "(worst < 1.25x minimum)",
                sectioned2_worst < minimum * 5 / 4);

    std::cout << "  two-port worst latency: matched "
              << matched2_worst << " vs unmatched "
              << sectioned2_worst << " (minimum " << minimum
              << ")\n";

    // Four ports on M = 64: still about half the serialized time.
    const auto four_s = runPorts(sectioned, 4);
    audit.check("four vectors on M=64 beat full serialization",
                four_s.makespan < 4 * minimum);
    std::cout << "  four-port makespan on M=64: " << four_s.makespan
              << " vs serialized " << 4 * minimum << "\n";

    return audit.finish();
}
