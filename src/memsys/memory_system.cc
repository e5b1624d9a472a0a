#include "memsys/memory_system.h"

#include <limits>

#include "common/logging.h"
#include "memsys/backend.h"

namespace cfva {

MemorySystem::MemorySystem(const MemConfig &cfg,
                           const ModuleMapping &map, MapPath path,
                           CollapseMode collapse)
    : cfg_(cfg), slicer_(map, path), collapse_(collapse)
{
    cfva_assert(map.moduleBits() == cfg.m,
                "mapping has 2^", map.moduleBits(),
                " modules but config expects 2^", cfg.m);
    modules_.reserve(cfg.modules());
    for (ModuleId i = 0; i < cfg.modules(); ++i)
        modules_.emplace_back(i, cfg.serviceCycles(), cfg.inputBuffers,
                              cfg.outputBuffers);
}

bool
MemorySystem::deliverOne(Cycle now, AccessResult &result)
{
    // Oldest-ready-first arbitration, lowest module id on ties.
    MemoryModule *best = nullptr;
    Cycle bestReady = std::numeric_limits<Cycle>::max();
    for (auto &mod : modules_) {
        const Delivery *head = mod.outputHead();
        if (head && head->ready < bestReady) {
            best = &mod;
            bestReady = head->ready;
        }
    }
    if (!best)
        return false;

    Delivery d = best->popOutput();
    d.delivered = now;
    result.lastDelivery = now;
    result.deliveries.push_back(d);
    return true;
}

AccessResult
MemorySystem::run(const std::vector<Request> &stream,
                  DeliveryArena *arena, const ModuleId *premapped)
{
    // Self-resetting: one instance serves many accesses (the
    // backend cache reuses engines across a whole sweep), so any
    // residue from a previous run is cleared up front.
    for (auto &mod : modules_)
        mod.reset();

    AccessResult result;
    if (arena)
        result.deliveries = arena->acquire(stream.size());
    else
        result.deliveries.reserve(stream.size());
    if (stream.empty()) {
        result.conflictFree = true;
        return result;
    }

    // Premap the whole stream once, before the cycle loop: bit-
    // sliced for linear mappings, scalar otherwise.  This also
    // removes the historical re-map on every stall retry (moduleOf
    // is pure, so the timing is unchanged).
    const ModuleId *mods = premapped;
    if (!mods) {
        mods_.resize(stream.size());
        slicer_.mapWith(
            [&stream](std::size_t i) { return stream[i].addr; },
            stream.size(), mods_.data());
        mods = mods_.data();
    }

    // Periodic fast path: memo replay or one event-stepper pass that
    // jumps once the machine state recurs, abandoned as soon as no
    // recurrence is possible.  Bit-identical to the cycle loop below
    // (tests/test_collapse.cc holds it to that differentially).
    if (collapse_ == CollapseMode::On
        && tryFastPath(cfg_, stream, mods, stepper_, memo_, fast_,
                       result)) {
        return result;
    }

    const Cycle t_cycles = cfg_.serviceCycles();
    std::size_t next = 0;     // next request to issue
    bool stalled_attempt = false;

    // Aggregate occupancy, maintained from the modules' returns so
    // the whole-array scans below can be skipped on quiet cycles.
    unsigned busy = 0;     // modules with a service in flight
    unsigned queued = 0;   // accepted requests not yet in service
    unsigned inOutput = 0; // serviced elements awaiting the bus

    // Hard cap: a stream of L requests on one module with all
    // buffering degenerates to ~L*T cycles; anything far beyond that
    // means the model wedged, which is a simulator bug.
    const Cycle limit = cfg_.wedgeLimit(stream.size(), 1);

    for (Cycle now = 0;; ++now) {
        cfva_assert(now <= limit, "simulation wedged at cycle ", now);

        // 1. Retire finished services into output buffers.
        if (busy != 0) {
            for (auto &mod : modules_) {
                if (mod.retire(now)) {
                    --busy;
                    ++inOutput;
                }
            }
        }

        // 2. Return bus: at most one delivery per cycle.
        if (inOutput != 0 && deliverOne(now, result))
            --inOutput;

        // 3. Start new services (same cycle a module retired is OK:
        //    the module was busy [start, start+T-1]).
        if (queued != 0) {
            for (auto &mod : modules_) {
                if (mod.tryStart(now)) {
                    --queued;
                    ++busy;
                }
            }
        }

        // 4. Processor: attempt to issue one request.
        if (next < stream.size()) {
            const Request &req = stream[next];
            const ModuleId target = mods[next];
            cfva_assert(target < cfg_.modules(),
                        "mapping produced module ", target,
                        " outside 2^", cfg_.m);
            MemoryModule &mod = modules_[target];
            if (mod.canAccept()) {
                Delivery d;
                d.addr = req.addr;
                d.element = req.element;
                d.module = target;
                d.issued = now;
                d.arrived = now + 1; // 1-cycle request bus
                mod.accept(d);
                ++queued;
                if (next == 0)
                    result.firstIssue = now;
                ++next;
                stalled_attempt = false;
            } else {
                ++result.stallCycles;
                stalled_attempt = true;
            }
        }

        if (next == stream.size() && !stalled_attempt
            && result.deliveries.size() == stream.size()) {
            break;
        }
    }

    result.latency = result.lastDelivery - result.firstIssue + 1;

    const Cycle min_latency =
        static_cast<Cycle>(stream.size()) + t_cycles + 1;
    result.conflictFree =
        result.stallCycles == 0 && result.latency == min_latency;
    // The loop is the fast path's fallback: it stepped every cycle
    // up to the last delivery.
    if (collapse_ == CollapseMode::On)
        fast_.steppedCycles += result.lastDelivery + 1;
    return result;
}

AccessResult
simulateAccess(const MemConfig &cfg, const ModuleMapping &map,
               const std::vector<Request> &stream,
               DeliveryArena *arena)
{
    MemorySystem sys(cfg, map);
    return sys.run(stream, arena);
}

std::vector<std::uint64_t>
AccessResult::deliveryOrder() const
{
    std::vector<std::uint64_t> order;
    order.reserve(deliveries.size());
    for (const auto &d : deliveries)
        order.push_back(d.element);
    return order;
}

} // namespace cfva
