/**
 * @file
 * Event-driven multi-port backend: the simulation tier's
 * `--engine event` for P > 1 ports.
 *
 * A thin MemoryBackend over the event stepper's P-port pass
 * (memsys/event_driven.h, EventStepper::runPorts): premap every
 * port's stream, step them together in one materializing pass, and
 * return the assembled MultiPortResult.  The pass simulates exactly
 * the model of memsys/multi_port.h — shared modules, per-port return
 * buses, least-issued-first issue order, same per-cycle step order —
 * and jumps from event to event instead of ticking every cycle.
 *
 * The produced MultiPortResult is bit-identical to
 * PerCycleMultiPort::run on every stream set: identical delivery
 * records (all five timestamps and the port tag), identical
 * per-port stall counts, identical aggregates.  The per-cycle model
 * stays in-tree as the oracle; tests/test_multi_port_differential.cc
 * holds the two to that contract over randomized scenario grids.
 */

#ifndef CFVA_MEMSYS_EVENT_MULTI_PORT_H
#define CFVA_MEMSYS_EVENT_MULTI_PORT_H

#include <vector>

#include "mapping/mapping.h"
#include "memsys/backend.h"
#include "memsys/event_driven.h"

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
    BitSlicedMapper slicer_;

    // Persistent across run() calls so a cached backend stops
    // paying the per-access construction cost: the stepper resets
    // its module array and heaps in place at the top of each pass.
    EventDrivenMemorySystem single_;
    EventStepper stepper_;
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
