/**
 * @file
 * LOAD/EXECUTE chaining model (paper Sec. 5F).
 *
 * With in-order access and buffers, element arrival times are
 * erratic, making chaining impractical.  The conflict-free scheme
 * returns one element per cycle in a deterministic order, so an
 * execute unit that consumes operands in that same order can chain:
 * each element is used the cycle after it arrives.  This module
 * computes total times for the decoupled and chained modes from a
 * simulated AccessResult.
 */

#ifndef CFVA_CORE_CHAINING_H
#define CFVA_CORE_CHAINING_H

#include "memsys/request.h"

namespace cfva {

/** Timing comparison of decoupled vs chained execution. */
struct ChainingReport
{
    /** Cycle the LOAD finished (last element delivered). */
    Cycle loadDone = 0;

    /**
     * Decoupled total: the execute unit starts only after the whole
     * register is loaded (the paper's default mode), issuing one
     * element per cycle.
     */
    Cycle decoupledTotal = 0;

    /**
     * Chained total: the execute unit consumes elements in delivery
     * order, each at the cycle after its arrival (subject to its
     * own one-per-cycle issue limit).
     */
    Cycle chainedTotal = 0;

    /**
     * True iff delivery was one element per cycle in a
     * deterministic order — the Sec. 5F precondition.  When false,
     * chainedTotal still reports the (erratic) achievable time.
     */
    bool chainable = false;

    /** Cycles saved by chaining. */
    Cycle
    saved() const
    {
        return decoupledTotal - chainedTotal;
    }
};

/**
 * Builds the chaining comparison for one executed access.
 *
 * @param result       simulator output for the LOAD
 * @param execLatency  pipeline depth of the execute unit (cycles
 *                     from operand issue to result)
 */
ChainingReport chainingModel(const AccessResult &result,
                             Cycle execLatency = 1);

/**
 * The EXECUTE step's cost *beyond the load's completion*, for
 * composing program sequences: a program that runs accesses back to
 * back totals sum(access latencies) + the execute extras below.
 * The vector processor's chained arithmetic timing reads it from the
 * load's delivery stream.  The sweep engine's workload programs no
 * longer build that stream: on one return bus the costs close to
 * (L - 1) + e decoupled and e chained, chainable iff the load was
 * conflict free, and tests/test_chaining.cc holds that closed form
 * to this model.
 */
struct ChainCosts
{
    /** Decoupled: issue all V operands after the load completes,
     *  one per cycle, plus the pipeline drain: (V-1) + execLatency
     *  extra cycles. */
    Cycle decoupled = 0;

    /** Chained: operands track deliveries one cycle behind; for a
     *  conflict-free load only the execLatency drain remains. */
    Cycle chained = 0;

    /** The Sec. 5F precondition held (deterministic one-per-cycle
     *  delivery). */
    bool chainable = false;

    /** Cycles chaining saves on this execute step. */
    Cycle saved() const { return decoupled - chained; }
};

/** Derives the composable execute-step costs from the load's
 *  simulated delivery stream (via chainingModel). */
ChainCosts chainCosts(const AccessResult &load, Cycle execLatency = 1);

} // namespace cfva

#endif // CFVA_CORE_CHAINING_H
