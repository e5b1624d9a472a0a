/**
 * @file
 * Per-cycle multi-port backend: several vectors accessed
 * simultaneously, stepped one cycle at a time.
 *
 * The paper's conclusions name this as future work: "several
 * vectors ... accessed simultaneously, either in a single processor
 * with several memory ports or in a multiprocessor".  P ports each
 * issue one request per cycle from an independent stream (any
 * ordering) into the shared modules, and each port has its own
 * return bus.  Modules and their buffers are shared, so inter-port
 * interference emerges naturally — and the Sec. 5E remark that
 * extra modules "can be justified by ... simultaneous access to
 * several vectors" becomes measurable (bench_multi_vector).
 *
 * This engine is the multi-port oracle: every cycle is stepped, so
 * its semantics are auditable line by line, and the event stepper's
 * P-port pass (memsys/event_driven.h, behind
 * memsys/event_multi_port.h and the theory tier) is held
 * bit-identical to it by tests/test_multi_port_differential.cc.
 */

#ifndef CFVA_MEMSYS_MULTI_PORT_H
#define CFVA_MEMSYS_MULTI_PORT_H

#include <vector>

#include "mapping/mapping.h"
#include "memsys/backend.h"
#include "memsys/memory_system.h"

namespace cfva {

/**
 * The cycle-stepped reference backend.  Each cycle: retire finished
 * services, drive every port's return bus (oldest ready head of
 * that port, lowest module on ties), start new services, then issue
 * at most one request per port — least-issued port first, so
 * contention for an input-buffer slot alternates among the
 * contenders (a cycle-parity rotation would alias with the service
 * period and starve one port).
 */
class PerCycleMultiPort final : public MemoryBackend
{
  public:
    /**
     * @param cfg   memory shape (modules, T, buffers)
     * @param map   shared address mapping; must produce module
     *              numbers < cfg.modules()
     * @param path  stream premap strategy (see makeMemoryBackend)
     * @param collapse  single-port periodic fast path, forwarded to
     *              the embedded MemorySystem (multi-port runs always
     *              step; inter-port interference is not periodic in
     *              any one stream's module sequence)
     */
    PerCycleMultiPort(const MemConfig &cfg, const ModuleMapping &map,
                      MapPath path = MapPath::BitSliced,
                      CollapseMode collapse = CollapseMode::Off);

    MultiPortResult
    run(const std::vector<std::vector<Request>> &streams,
        DeliveryArena *arena = nullptr) override;

    /** P = 1 delegates to MemorySystem::run, the single-port
     *  oracle; bit-identical to run({stream}).ports[0]. */
    AccessResult
    runSingle(const std::vector<Request> &stream,
              DeliveryArena *arena = nullptr) override;

    /** The embedded single-port engine's collapse/memo counters. */
    FastPathStats
    fastPathStats() const override
    {
        return single_.fastPathStats();
    }

    const char *name() const override { return "per-cycle"; }

  private:
    /** Per-port issue bookkeeping. */
    struct Port
    {
        std::size_t next = 0; //!< next request (= requests issued)
        Cycle firstIssue = 0;
        std::uint64_t stalls = 0;
    };

    MemConfig cfg_;
    BitSlicedMapper slicer_;

    // Persistent across run() calls so a cached backend stops
    // paying the per-access construction cost (module array with
    // its buffers, the single-port engine, issue and premap
    // scratch).  Every run() resets what it uses; results are
    // bit-identical to a freshly constructed backend.
    MemorySystem single_;
    std::vector<MemoryModule> modules_;
    std::vector<unsigned> order_; //!< issue-priority scratch
    std::vector<Port> ports_; //!< per-port scratch
    std::vector<std::vector<ModuleId>> portMods_; //!< premap scratch
};

/**
 * Convenience wrapper retained from the pre-backend API: builds a
 * PerCycleMultiPort and runs @p streams in one call.
 *
 * @param cfg      memory shape (modules, T, buffers)
 * @param map      shared address mapping
 * @param streams  one request stream per port (P = streams.size())
 */
MultiPortResult
simulateMultiPort(const MemConfig &cfg, const ModuleMapping &map,
                  const std::vector<std::vector<Request>> &streams);

} // namespace cfva

#endif // CFVA_MEMSYS_MULTI_PORT_H
