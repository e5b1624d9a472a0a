/**
 * @file
 * Experiment E11 — Sec. 5F: chaining LOAD with EXECUTE.
 *
 * The conflict-free scheme returns one element per cycle in a
 * deterministic order, so an execute unit consuming in that order
 * chains perfectly: total time lastDelivery + 1 + pipeline drain,
 * saving ~L cycles over the decoupled mode.  Out-of-window strides
 * return erratically and cannot commit to a chain schedule.
 *
 * Runs on the SweepEngine batching path: the stride set becomes a
 * chain-workload ScenarioGrid executed under the audit tier, which
 * answers every scenario with both the stepped oracle and the
 * evaluator and cross-checks them bit for bit, and the table below
 * is rendered from the oracle's outcomes.  The delivery-order
 * precondition is still audited against the unit directly.
 */

#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/access_unit.h"
#include "core/chaining.h"
#include "sim/sweep_engine.h"
#include "sim/sweep_sink.h"

using namespace cfva;

int
main()
{
    bench::Audit audit("E11 / Sec. 5F: LOAD/EXECUTE chaining");

    const std::uint64_t len = 128;
    const Cycle exec_latency = 4;

    // The E11 grid: the paper's matched system, the historical
    // stride set, one chain workload at pipeline depth 4.
    sim::ScenarioGrid grid;
    grid.mappings = {paperMatchedExample()};
    grid.strides = {1, 2, 12, 16, 32};
    grid.starts = {7};
    grid.randomStarts = 0;
    sim::Workload chain;
    chain.kind = sim::WorkloadKind::Chain;
    chain.execLatency = exec_latency;
    grid.workloads = {chain};

    sim::SweepOptions audited;
    audited.tier = TierPolicy::AuditBoth;
    sim::SweepRunStats stats;
    const sim::SweepReport oracle =
        sim::SweepEngine(audited).run(grid, &stats);

    audit.check("theory-tier chain-workload sweep bit-identical "
                "to the stepped oracle (0 audit divergences)",
                stats.tierAuditDivergences == 0);

    const VectorAccessUnit unit(paperMatchedExample());

    TextTable table({"stride", "x", "chainable", "load", "decoupled",
                     "chained", "saved"});
    bool in_window_chain_ok = true;
    for (const auto &o : oracle.outcomes) {
        table.row(o.stride, o.family, o.chainable ? "yes" : "no",
                  o.latency, o.decoupledCycles, o.chainedCycles,
                  o.chainSaved());
        if (o.inWindow) {
            in_window_chain_ok &= o.chainable;
            // Perfect chain: only the pipeline drain survives past
            // the load (chained total = load latency + drain).
            in_window_chain_ok &=
                o.chainedCycles == o.latency + exec_latency;
            in_window_chain_ok &= o.chainSaved() == len - 1;
        }
    }
    table.print(std::cout,
                "Chaining on the matched paper system [sweep, "
                "audited] (exec pipeline depth 4)");

    audit.check("every in-window stride chains perfectly "
                "(saves L-1 = 127 cycles)", in_window_chain_ok);

    const auto out_of_window = oracle.outcomes.back();
    audit.check("out-of-window stride flagged not chainable",
                out_of_window.stride == 32
                    && !out_of_window.chainable);

    // The sweep's closed-form chain totals must agree with the
    // direct Sec. 5F model over the unit's delivery stream, for a
    // conflict-free (12) and a conflicted (32) stride.
    bool model_agrees = true;
    for (const std::uint64_t stride : {12u, 32u}) {
        const auto rep =
            chainingModel(unit.access(7, Stride(stride), len),
                          exec_latency);
        bool found = false;
        for (const auto &o : oracle.outcomes) {
            if (o.stride != stride)
                continue;
            found = true;
            model_agrees &= o.decoupledCycles == rep.decoupledTotal
                            && o.chainedCycles == rep.chainedTotal
                            && o.chainable == rep.chainable;
        }
        model_agrees &= found;
    }
    audit.check("sweep chain totals equal chainingModel on the "
                "unit (strides 12 and 32)", model_agrees);

    // Deterministic order requirement: the delivery order of a
    // conflict-free access equals the issue order of its plan.
    const auto plan = unit.plan(7, Stride(12), len);
    const auto r = unit.execute(plan);
    bool order_ok = true;
    for (std::size_t i = 0; i < len; ++i)
        order_ok &= r.deliveries[i].element == plan.stream[i].element;
    audit.check("delivery order = issue order (the chain schedule "
                "is known at issue time)", order_ok);

    return audit.finish();
}
