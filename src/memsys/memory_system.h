/**
 * @file
 * The stepped oracle: the cycle-accurate multi-module memory system
 * of the paper's Figure 2, for one port or several.
 *
 * M = 2^m modules behind a 1-cycle request bus.  Each port issues
 * one request per cycle from its own stream (any ordering) unless
 * the target module's input buffer is full, in which case it stalls
 * and retries — exactly the processor model the paper's latency
 * arithmetic assumes — and each port has its own return bus that
 * delivers at most one of its elements per cycle.  One port is the
 * paper's machine.  Several ports are the extension its conclusions
 * name as future work ("several vectors ... accessed
 * simultaneously, either in a single processor with several memory
 * ports or in a multiprocessor"): the modules and their buffers are
 * shared, so inter-port interference emerges naturally — and the
 * Sec. 5E remark that extra modules "can be justified by ...
 * simultaneous access to several vectors" becomes measurable
 * (bench_multi_vector).
 *
 * Every cycle is stepped, so the semantics are auditable line by
 * line.  This is the one reference model: the event stepper
 * (memsys/event_driven.h) is held bit-identical to it by
 * tests/test_engine_differential.cc, tests/test_collapse.cc and
 * tests/test_multi_port_differential.cc, and the theory tier by
 * `cfva_sweep --tier audit`.
 */

#ifndef CFVA_MEMSYS_MEMORY_SYSTEM_H
#define CFVA_MEMSYS_MEMORY_SYSTEM_H

#include <vector>

#include "mapping/mapping.h"
#include "memsys/backend.h"
#include "memsys/module.h"
#include "memsys/request.h"

namespace cfva {

/**
 * The memory-system simulator.  Each cycle: retire finished
 * services, drive every port's return bus (oldest ready head of that
 * port, lowest module on ties), start new services, then issue at
 * most one request per port — least-issued port first, so contention
 * for an input-buffer slot alternates among the contenders (a
 * cycle-parity rotation would alias with the service period and
 * starve one port).  Deterministic, and reusable across accesses:
 * every run resets what it uses.
 */
class MemorySystem
{
  public:
    /**
     * @param cfg   subsystem shape
     * @param map   address mapping; must produce module numbers
     *              < cfg.modules() and outlive the oracle
     */
    MemorySystem(const MemConfig &cfg, const ModuleMapping &map);

    /**
     * Steps @p streams issued simultaneously, one request per port
     * per cycle (P = streams.size() >= 1; lengths may differ, and an
     * empty stream is a vacuously conflict-free port).  @p arena,
     * when given, recycles the per-port delivery buffers.
     */
    MultiPortResult
    run(const std::vector<std::vector<Request>> &streams,
        DeliveryArena *arena = nullptr);

    /** The one-port access, bit-identical to
     *  run({stream}).ports[0]. */
    AccessResult
    runSingle(const std::vector<Request> &stream,
              DeliveryArena *arena = nullptr);

    const MemConfig &config() const { return cfg_; }

  private:
    /** Per-port issue bookkeeping. */
    struct Port
    {
        std::size_t next = 0; //!< next request (= requests issued)
        Cycle firstIssue = 0;
        std::uint64_t stalls = 0;
    };

    /** Steps the @p count streams at @p streams together. */
    MultiPortResult step(const std::vector<Request> *streams,
                         unsigned count, DeliveryArena *arena);

    MemConfig cfg_;
    const ModuleMapping *map_;

    // Persistent across runs so a cached oracle stops paying the
    // per-access construction cost (module array with its buffers,
    // issue and premap scratch).
    std::vector<MemoryModule> modules_;
    std::vector<unsigned> order_; //!< issue-priority scratch
    std::vector<Port> ports_;     //!< per-port scratch
    std::vector<std::vector<ModuleId>> portMods_; //!< premap scratch
};

/**
 * Convenience wrapper: build a MemorySystem and run @p stream
 * through @p map in one call.
 */
AccessResult simulateAccess(const MemConfig &cfg,
                            const ModuleMapping &map,
                            const std::vector<Request> &stream,
                            DeliveryArena *arena = nullptr);

/**
 * Convenience wrapper: build a MemorySystem and run @p streams, one
 * per port (P = streams.size()), through @p map in one call.
 */
MultiPortResult
simulateMultiPort(const MemConfig &cfg, const ModuleMapping &map,
                  const std::vector<std::vector<Request>> &streams);

} // namespace cfva

#endif // CFVA_MEMSYS_MEMORY_SYSTEM_H
