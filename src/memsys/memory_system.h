/**
 * @file
 * Cycle-accurate multi-module memory system (paper Figure 2).
 *
 * M = 2^m modules behind a 1-cycle request bus and a single return
 * bus that delivers at most one element per cycle.  The processor
 * issues one request per cycle unless the target module's input
 * buffer is full, in which case it stalls and retries — exactly the
 * processor model the paper's latency arithmetic assumes.
 */

#ifndef CFVA_MEMSYS_MEMORY_SYSTEM_H
#define CFVA_MEMSYS_MEMORY_SYSTEM_H

#include <cstdint>
#include <vector>

#include "mapping/bitslice.h"
#include "mapping/mapping.h"
#include "memsys/event_driven.h"
#include "memsys/module.h"
#include "memsys/request.h"
#include "memsys/steady_state.h"

namespace cfva {

class DeliveryArena;

/**
 * The memory subsystem simulator.
 *
 * One instance simulates one vector access: construct, call run()
 * with the request stream (any ordering), read the AccessResult.
 * The simulator is deterministic; ties on the return bus resolve to
 * the oldest-ready element, then the lowest module number.
 */
class MemorySystem
{
  public:
    /**
     * @param cfg   subsystem shape
     * @param map   address mapping; must produce module numbers
     *              < cfg.modules()
     * @param path  BitSliced premaps whole streams via the mapping's
     *              GF(2) rows when available; Scalar forces
     *              per-element moduleOf() (for differential tests)
     * @param collapse  On lets run() answer periodic streams via
     *              memo replay or the event stepper's recurrence
     *              jump (bit-identical); Off keeps the engine a pure
     *              stepped oracle.  Raw engines default to Off; the
     *              backend factories default to On.
     */
    MemorySystem(const MemConfig &cfg, const ModuleMapping &map,
                 MapPath path = MapPath::BitSliced,
                 CollapseMode collapse = CollapseMode::Off);

    /**
     * Simulates the access of @p stream issued one request per
     * cycle starting at cycle 0.
     *
     * The whole stream is premapped to module numbers before the
     * cycle loop (bit-sliced for linear mappings); pass
     * @p premapped to supply assignments computed by the caller
     * instead (premapped[i] must equal the mapping of
     * stream[i].addr).
     *
     * @param stream     requests in the desired temporal order
     * @param arena      optional recycler the result's delivery
     *                   buffer is acquired from (timing-neutral; the
     *                   records are identical either way)
     * @param premapped  optional caller-computed module assignments
     * @return timing of every element plus aggregate metrics
     */
    AccessResult run(const std::vector<Request> &stream,
                     DeliveryArena *arena = nullptr,
                     const ModuleId *premapped = nullptr);

    const MemConfig &config() const { return cfg_; }

    /** Collapse/memo attribution since construction. */
    const FastPathStats &fastPathStats() const { return fast_; }

  private:
    /** Delivers the oldest ready output entry over the return bus. */
    bool deliverOne(Cycle now, AccessResult &result);

    MemConfig cfg_;
    BitSlicedMapper slicer_;
    CollapseMode collapse_;
    std::vector<MemoryModule> modules_;
    std::vector<ModuleId> mods_; //!< premap scratch, reused per run

    /** The collapse fast path: memo replay, or one event-stepper
     *  pass that is abandoned when no recurrence is possible (the
     *  cycle loop then steps the stream as the oracle does). */
    EventStepper stepper_;
    OutcomeMemo memo_;
    FastPathStats fast_;
};

/**
 * Convenience wrapper: build a MemorySystem and run @p stream
 * through @p map in one call.
 */
AccessResult simulateAccess(const MemConfig &cfg,
                            const ModuleMapping &map,
                            const std::vector<Request> &stream,
                            DeliveryArena *arena = nullptr);

} // namespace cfva

#endif // CFVA_MEMSYS_MEMORY_SYSTEM_H
