/**
 * @file
 * Event-driven multi-port backend.
 *
 * Simulates exactly the model of memsys/multi_port.h — shared
 * modules, per-port return buses, least-issued-first issue rotation,
 * same per-cycle step order (retire, return buses in port order,
 * service start, issue) — but advances simulated time directly to
 * the next instant at which any state can change instead of ticking
 * every cycle.  Between events the only activity is stalled ports
 * retrying issues against unchanged (full) input buffers, which the
 * engine accounts for with one subtraction per port.
 *
 * The produced MultiPortResult is bit-identical to
 * PerCycleMultiPort::run on every stream set: identical delivery
 * records (all five timestamps and the port tag), identical
 * per-port stall counts, identical aggregates.  The per-cycle model
 * stays in-tree as the oracle; tests/test_multi_port_differential.cc
 * holds the two to that contract over randomized scenario grids.
 *
 * Two event classes are new relative to the single-port engine
 * (memsys/event_driven.h):
 *
 * - Per-port output heaps: the per-cycle model scans all M module
 *   output heads once per port per cycle (O(P*M)).  Here a module
 *   with a nonempty output buffer lives in exactly one of P
 *   ModuleEventHeaps — the heap of the port its current head
 *   belongs to — so each port's return-bus arbitration is a heap
 *   pop, and a pop that reveals a head for a later port re-files
 *   the module in that port's heap within the same cycle (exactly
 *   the visibility order of the sequential per-cycle scan).
 * - Port-rotation issue events: issue priority depends only on the
 *   per-port issued counts, which change only on event cycles, so
 *   the least-issued-first rotation is re-sorted per event rather
 *   than per cycle.
 */

#ifndef CFVA_MEMSYS_EVENT_MULTI_PORT_H
#define CFVA_MEMSYS_EVENT_MULTI_PORT_H

#include <cstdint>
#include <vector>

#include "mapping/mapping.h"
#include "memsys/backend.h"
#include "memsys/event_driven.h"
#include "memsys/event_queue.h"
#include "memsys/memory_system.h"

namespace cfva {

/** Event-driven twin of PerCycleMultiPort; bit-identical results. */
class EventDrivenMultiPort final : public MemoryBackend
{
  public:
    /**
     * @param cfg   memory shape (modules, T, buffers)
     * @param map   shared address mapping; must produce module
     *              numbers < cfg.modules()
     * @param path  stream premap strategy (see makeMemoryBackend)
     * @param collapse  single-port periodic fast path, forwarded to
     *              the embedded EventDrivenMemorySystem (see
     *              PerCycleMultiPort)
     */
    EventDrivenMultiPort(const MemConfig &cfg,
                         const ModuleMapping &map,
                         MapPath path = MapPath::BitSliced,
                         CollapseMode collapse = CollapseMode::Off);

    MultiPortResult
    run(const std::vector<std::vector<Request>> &streams,
        DeliveryArena *arena = nullptr) override;

    /** P = 1 delegates to EventDrivenMemorySystem::run, the
     *  optimized single-port event engine. */
    AccessResult
    runSingle(const std::vector<Request> &stream,
              DeliveryArena *arena = nullptr) override;

    /** The embedded single-port engine's collapse/memo counters. */
    FastPathStats
    fastPathStats() const override
    {
        return single_.fastPathStats();
    }

    const char *name() const override { return "event-driven"; }

  private:
    MemConfig cfg_;
    const ModuleMapping &map_;
    BitSlicedMapper slicer_;

    // Persistent across run() calls so a cached backend stops
    // paying the per-access construction cost: the module array,
    // the event heaps, and the issue scratch survive between
    // accesses and are reset (cheaply — everything is empty after
    // a drained run) at the top of each run().  Per-port state is
    // sized in place, so one instance serves every port count.
    EventDrivenMemorySystem single_;
    std::vector<MemoryModule> modules_;
    ModuleEventHeap retire_;
    std::vector<ModuleEventHeap> outHeads_;
    ArrivalQueue arrivals_;
    std::vector<std::uint8_t> retireBlocked_;
    std::vector<ModuleId> startable_;
    std::vector<unsigned> order_;
    std::vector<detail::PortState> ports_; //!< per-port scratch
    std::vector<std::vector<ModuleId>> portMods_; //!< premap scratch
};

/**
 * Convenience wrapper: build an EventDrivenMultiPort and run
 * @p streams through @p map in one call.
 */
MultiPortResult
simulateMultiPortEventDriven(
    const MemConfig &cfg, const ModuleMapping &map,
    const std::vector<std::vector<Request>> &streams);

} // namespace cfva

#endif // CFVA_MEMSYS_EVENT_MULTI_PORT_H
