/**
 * @file
 * Value types for the multi-module memory simulator: the memory
 * shape, the requests, and their delivery records.
 *
 * The simulator's timing contract (DESIGN.md "Key design decisions"):
 * a request issued by the processor at cycle c crosses the 1-cycle
 * request bus and arrives at its module at c+1; the module is busy
 * for T cycles; the element is eligible for the single return bus at
 * service-start + T.  A conflict-free stream of L requests issued at
 * cycles 0..L-1 therefore finishes at cycle L+T, an inclusive span of
 * L+T+1 cycles — the paper's minimum latency (Sec. 2).
 */

#ifndef CFVA_MEMSYS_REQUEST_H
#define CFVA_MEMSYS_REQUEST_H

#include <cstdint>
#include <vector>

#include "common/bits.h"

namespace cfva {

/** Static configuration of the memory subsystem. */
struct MemConfig
{
    unsigned m = 3;            //!< log2 module count (M = 2^m)
    unsigned t = 3;            //!< log2 service time (T = 2^t)
    unsigned inputBuffers = 1; //!< q, per-module input entries
    unsigned outputBuffers = 1; //!< q', per-module output entries

    ModuleId modules() const { return ModuleId{1} << m; }
    Cycle serviceCycles() const { return Cycle{1} << t; }

    /** True for the matched case M = T the paper starts from. */
    bool matched() const { return m == t; }

    /**
     * Wedge guard for @p requests requests issued from @p ports
     * ports: serialized on one module with all buffering, the
     * access takes about requests * T cycles, so a simulation past
     * this cycle has wedged — a simulator bug.
     */
    Cycle
    wedgeLimit(std::size_t requests, unsigned ports) const
    {
        return (static_cast<Cycle>(requests) + 4 * Cycle{ports})
                   * (serviceCycles() + 2)
               + 64;
    }
};

/** One element request as produced by an access ordering. */
struct Request
{
    /** Memory address of the element. */
    Addr addr = 0;

    /**
     * Position of the element within the vector register (0-based).
     * Out-of-order accesses permute request order, not element
     * identity; the register file writes by this index.
     */
    std::uint64_t element = 0;
};

/** Full timing record of one element's trip through the memory. */
struct Delivery
{
    Addr addr = 0;
    std::uint64_t element = 0;
    ModuleId module = 0;
    unsigned port = 0; //!< issuing port (multi-port extension)

    Cycle issued = 0;        //!< processor put it on the request bus
    Cycle arrived = 0;       //!< reached the module input buffer
    Cycle serviceStart = 0;  //!< module began the T-cycle access
    Cycle ready = 0;         //!< left the module (serviceStart + T)
    Cycle delivered = 0;     //!< crossed the return bus

    bool operator==(const Delivery &o) const = default;
};

/** Aggregate outcome of one vector access. */
struct AccessResult
{
    /** Inclusive cycle span from first issue to last delivery. */
    Cycle latency = 0;

    Cycle firstIssue = 0;
    Cycle lastDelivery = 0;

    /** Cycles the processor spent stalled on a full input buffer. */
    std::uint64_t stallCycles = 0;

    /**
     * True iff every request was accepted the cycle it was
     * attempted and the stream achieved the minimum latency
     * L + T + 1 (the paper's conflict-free criterion realized in
     * simulation).
     */
    bool conflictFree = false;

    /** Per-element records, in delivery order. */
    std::vector<Delivery> deliveries;

    /**
     * Element indices in delivery order; the order the register
     * file is written and — under chaining (Sec. 5F) — the order
     * the execute unit may consume.
     */
    std::vector<std::uint64_t> deliveryOrder() const;

    /**
     * Full bitwise equality, including every per-element timing
     * record — the contract the event-driven engine is held to
     * against the per-cycle reference.
     */
    bool operator==(const AccessResult &o) const = default;
};

/** Outcome of a simultaneous multi-vector access. */
struct MultiPortResult
{
    /** Per-port results (latency, stalls, deliveries). */
    std::vector<AccessResult> ports;

    /** Cycles from the first issue to the last delivery overall
     *  (exclusive: the cycle after the last delivery); 0 when no
     *  element was delivered. */
    Cycle makespan = 0;

    /** True iff every port ran at its own minimum latency. */
    bool
    allConflictFree() const
    {
        for (const auto &p : ports) {
            if (!p.conflictFree)
                return false;
        }
        return true;
    }

    bool operator==(const MultiPortResult &o) const = default;
};

} // namespace cfva

#endif // CFVA_MEMSYS_REQUEST_H
