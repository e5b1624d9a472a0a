/**
 * @file
 * Quickstart: build the paper's matched-memory system, access one
 * vector, and see why out-of-order issue matters.
 *
 * Run: ./quickstart
 */

#include <iostream>

#include "core/access_unit.h"
#include "core/chaining.h"

using namespace cfva;

int
main()
{
    // The paper's running example: 8 memory modules, module busy
    // time T = 8 processor cycles, vector registers of L = 128
    // elements, Eq. 1 XOR mapping with s = lambda - t = 4.
    const VectorUnitConfig cfg = paperMatchedExample();
    const VectorAccessUnit unit(cfg);

    std::cout << "System: " << cfg.describe() << "\n"
              << "Mapping: " << unit.mapping().name() << "\n"
              << "Conflict-free stride families: x in ["
              << unit.window().lo << ", " << unit.window().hi
              << "]\n\n";

    // Access a vector with stride 12 starting anywhere.  Stride
    // 12 = 3 * 2^2 belongs to family x = 2: with classic in-order
    // issue it conflicts, but it sits inside the window, so the
    // unit picks the Sec. 3.2 conflict-free out-of-order issue.
    const Addr a1 = 16;
    const Stride stride(12);
    const auto plan = unit.plan(a1, stride, cfg.registerLength());

    std::cout << "Access: A1=" << a1 << ", S=" << stride << ", L="
              << cfg.registerLength() << "\n"
              << "Chosen policy: " << to_string(plan.policy) << "\n"
              << "Why: " << unit.explain(stride, cfg.registerLength())
              << "\n\n";

    const auto result = unit.execute(plan);
    std::cout << "Measured latency: " << result.latency
              << " cycles (minimum possible = L+T+1 = "
              << cfg.registerLength() + cfg.serviceCycles() + 1
              << ")\n"
              << "Conflict free: "
              << (result.conflictFree ? "yes" : "no") << "\n\n";

    // Contrast with naive in-order issue of the same addresses.
    const auto in_order = simulateAccess(
        unit.memConfig(), unit.mapping(),
        canonicalOrder(a1, stride, cfg.registerLength()));
    std::cout << "Same access issued in order: " << in_order.latency
              << " cycles, conflict free: "
              << (in_order.conflictFree ? "yes" : "no") << "\n\n";

    // Because delivery is deterministic, the execute unit can chain
    // on the LOAD (Sec. 5F).
    const auto chain = chainingModel(result, /*execLatency=*/4);
    std::cout << "Chaining (Sec. 5F): decoupled total "
              << chain.decoupledTotal << " cycles, chained "
              << chain.chainedTotal << " cycles, saved "
              << chain.saved() << "\n";

    return 0;
}
