#include "memsys/memory_system.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "memsys/steady_state.h"

namespace cfva {

MemorySystem::MemorySystem(const MemConfig &cfg,
                           const ModuleMapping &map)
    : cfg_(cfg), map_(&map)
{
    cfva_assert(map.moduleBits() == cfg.m,
                "mapping has 2^", map.moduleBits(),
                " modules but config expects 2^", cfg.m);
    modules_.reserve(cfg.modules());
    for (ModuleId i = 0; i < cfg.modules(); ++i)
        modules_.emplace_back(i, cfg.serviceCycles(),
                              cfg.inputBuffers, cfg.outputBuffers);
}

MultiPortResult
MemorySystem::run(const std::vector<std::vector<Request>> &streams,
                  DeliveryArena *arena)
{
    cfva_assert(!streams.empty(), "need at least one port");
    return step(streams.data(), static_cast<unsigned>(streams.size()),
                arena);
}

AccessResult
MemorySystem::runSingle(const std::vector<Request> &stream,
                        DeliveryArena *arena)
{
    return std::move(step(&stream, 1, arena).ports.front());
}

MultiPortResult
MemorySystem::step(const std::vector<Request> *streams, unsigned count,
                   DeliveryArena *arena)
{
    std::vector<MemoryModule> &modules = modules_;
    for (auto &mod : modules)
        mod.reset();
    order_.resize(count);
    std::vector<unsigned> &order = order_;

    // Member scratch: clear() + resize() value-initializes the
    // Ports while keeping the vector's own capacity.
    ports_.clear();
    ports_.resize(count);
    std::vector<Port> &ports = ports_;
    MultiPortResult result;
    result.ports.resize(count);

    // Premap every stream before the cycle loop; issue attempts
    // below just index the result.
    while (portMods_.size() < count)
        portMods_.emplace_back();
    std::size_t total = 0;
    for (unsigned p = 0; p < count; ++p) {
        const std::vector<Request> &stream = streams[p];
        total += stream.size();
        std::vector<ModuleId> &mods = portMods_[p];
        mods.resize(stream.size());
        for (std::size_t i = 0; i < stream.size(); ++i)
            mods[i] = map_->moduleOf(stream[i].addr);
        std::vector<Delivery> &buf = result.ports[p].deliveries;
        if (arena)
            buf = arena->acquire(stream.size());
        buf.reserve(stream.size());
    }
    std::size_t delivered_total = 0;

    // Hard cap: a stream of L requests on one module with all
    // buffering degenerates to ~L*T cycles; anything far beyond that
    // means the model wedged, which is a simulator bug.
    const Cycle limit = cfg_.wedgeLimit(total, count);

    // Aggregate occupancy, maintained from the modules' returns so
    // the whole-array scans below can be skipped on quiet cycles.
    unsigned busy = 0;     // modules with a service in flight
    unsigned queued = 0;   // accepted requests not yet in service
    unsigned inOutput = 0; // serviced elements awaiting a bus

    Cycle makespan = 0;
    for (Cycle now = 0; delivered_total < total; ++now) {
        cfva_assert(now <= limit, "simulation wedged at cycle ", now);

        // 1. Retire finished services into output buffers.
        if (busy != 0) {
            for (auto &mod : modules) {
                if (mod.retire(now)) {
                    --busy;
                    ++inOutput;
                }
            }
        }

        // 2. Per-port return buses: each delivers its own oldest
        //    ready element, lowest module on ties.  Scanning output
        //    heads only is correct because module outputs drain in
        //    completion order.
        if (inOutput != 0) {
            for (unsigned p = 0; p < count; ++p) {
                MemoryModule *best = nullptr;
                Cycle best_ready = std::numeric_limits<Cycle>::max();
                for (auto &mod : modules) {
                    const Delivery *head = mod.outputHead();
                    if (head && head->port == p
                        && head->ready < best_ready) {
                        best = &mod;
                        best_ready = head->ready;
                    }
                }
                if (best) {
                    Delivery d = best->popOutput();
                    --inOutput;
                    d.delivered = now;
                    result.ports[p].deliveries.push_back(d);
                    ++delivered_total;
                    makespan = now;
                }
            }
        }

        // 3. Start new services (same cycle a module retired is OK:
        //    the module was busy [start, start+T-1]).
        if (queued != 0) {
            for (auto &mod : modules) {
                if (mod.tryStart(now)) {
                    --queued;
                    ++busy;
                }
            }
        }

        // 4. Issue: at most one request per port, least-issued port
        //    first.
        for (unsigned p = 0; p < count; ++p)
            order[p] = p;
        std::sort(order.begin(), order.end(),
                  [&](unsigned a, unsigned b) {
                      return ports[a].next != ports[b].next
                                 ? ports[a].next < ports[b].next
                                 : a < b;
                  });
        for (unsigned k = 0; k < count; ++k) {
            const unsigned p = order[k];
            Port &ps = ports[p];
            if (ps.next >= streams[p].size())
                continue;
            const Request &req = streams[p][ps.next];
            const ModuleId target = portMods_[p][ps.next];
            cfva_assert(target < cfg_.modules(),
                        "mapping produced module ", target,
                        " outside 2^", cfg_.m);
            MemoryModule &mod = modules[target];
            if (mod.canAccept()) {
                Delivery d;
                d.addr = req.addr;
                d.element = req.element;
                d.module = target;
                d.port = p;
                d.issued = now;
                d.arrived = now + 1; // 1-cycle request bus
                mod.accept(d);
                ++queued;
                if (ps.next == 0)
                    ps.firstIssue = now;
                ++ps.next;
            } else {
                ++ps.stalls;
            }
        }
    }

    for (unsigned p = 0; p < count; ++p) {
        AccessResult &r = result.ports[p];
        const Cycle last =
            r.deliveries.empty() ? 0 : r.deliveries.back().delivered;
        summarizePort(streams[p].size(), cfg_.serviceCycles(),
                      ports[p].firstIssue, last, ports[p].stalls, r);
    }
    result.makespan = total == 0 ? 0 : makespan + 1;
    return result;
}

AccessResult
simulateAccess(const MemConfig &cfg, const ModuleMapping &map,
               const std::vector<Request> &stream,
               DeliveryArena *arena)
{
    MemorySystem sys(cfg, map);
    return sys.runSingle(stream, arena);
}

MultiPortResult
simulateMultiPort(const MemConfig &cfg, const ModuleMapping &map,
                  const std::vector<std::vector<Request>> &streams)
{
    MemorySystem sys(cfg, map);
    return sys.run(streams);
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
