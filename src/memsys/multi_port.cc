#include "memsys/multi_port.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace cfva {

PerCycleMultiPort::PerCycleMultiPort(const MemConfig &cfg,
                                     const ModuleMapping &map,
                                     MapPath path,
                                     CollapseMode collapse)
    : cfg_(cfg), slicer_(map, path),
      single_(cfg, map, path, collapse)
{
    cfva_assert(map.moduleBits() == cfg.m,
                "mapping has 2^", map.moduleBits(),
                " modules but config expects 2^", cfg.m);
    modules_.reserve(cfg.modules());
    for (ModuleId i = 0; i < cfg.modules(); ++i)
        modules_.emplace_back(i, cfg.serviceCycles(),
                              cfg.inputBuffers, cfg.outputBuffers);
}

AccessResult
PerCycleMultiPort::runSingle(const std::vector<Request> &stream,
                             DeliveryArena *arena)
{
    // MemorySystem::run self-resets, so the persistent engine
    // behaves exactly like the freshly built one simulateAccess
    // used to construct per access.
    return single_.run(stream, arena);
}

MultiPortResult
PerCycleMultiPort::run(const std::vector<std::vector<Request>> &streams,
                       DeliveryArena *arena)
{
    cfva_assert(!streams.empty(), "need at least one port");
    if (streams.size() == 1)
        return detail::wrapSinglePort(runSingle(streams[0], arena));

    const unsigned n_ports = static_cast<unsigned>(streams.size());
    std::vector<MemoryModule> &modules = modules_;
    for (auto &mod : modules)
        mod.reset();
    order_.resize(n_ports);
    std::vector<unsigned> &order = order_;

    // Member scratch: clear() + resize() value-initializes the
    // Ports while keeping the vector's own capacity.
    ports_.clear();
    ports_.resize(n_ports);
    std::vector<Port> &ports = ports_;
    MultiPortResult result;
    result.ports.resize(n_ports);

    // Premap every stream before the cycle loop (bit-sliced for
    // linear mappings); issue attempts below just index the result.
    while (portMods_.size() < n_ports)
        portMods_.emplace_back();
    std::size_t total = 0;
    for (unsigned p = 0; p < n_ports; ++p) {
        total += streams[p].size();
        const std::vector<Request> &stream = streams[p];
        portMods_[p].resize(stream.size());
        slicer_.mapWith(
            [&stream](std::size_t i) { return stream[i].addr; },
            stream.size(), portMods_[p].data());
        std::vector<Delivery> &buf = result.ports[p].deliveries;
        if (arena)
            buf = arena->acquire(stream.size());
        buf.reserve(stream.size());
    }
    std::size_t delivered_total = 0;

    const Cycle limit = cfg_.wedgeLimit(total, n_ports);

    // Aggregate occupancy so quiet-phase scans can be skipped (same
    // scheme as MemorySystem::run).
    unsigned busy = 0;
    unsigned queued = 0;
    unsigned inOutput = 0;

    Cycle makespan = 0;
    for (Cycle now = 0; delivered_total < total; ++now) {
        cfva_assert(now <= limit, "multi-port simulation wedged at "
                    "cycle ", now);

        // 1. Retire finished services.
        if (busy != 0) {
            for (auto &mod : modules) {
                if (mod.retire(now)) {
                    --busy;
                    ++inOutput;
                }
            }
        }

        // 2. Per-port return buses: each delivers its own oldest
        //    ready element.  Scanning output heads only is correct
        //    because module outputs drain in completion order.
        if (inOutput != 0) {
            for (unsigned p = 0; p < n_ports; ++p) {
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

        // 3. Start new services.
        if (queued != 0) {
            for (auto &mod : modules) {
                if (mod.tryStart(now)) {
                    --queued;
                    ++busy;
                }
            }
        }

        // 4. Issue: least-issued port first.
        for (unsigned p = 0; p < n_ports; ++p)
            order[p] = p;
        std::sort(order.begin(), order.end(),
                  [&](unsigned a, unsigned b) {
                      return ports[a].next != ports[b].next
                                 ? ports[a].next < ports[b].next
                                 : a < b;
                  });
        for (unsigned k = 0; k < n_ports; ++k) {
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
                d.arrived = now + 1;
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

    for (unsigned p = 0; p < n_ports; ++p) {
        AccessResult &r = result.ports[p];
        const Cycle last =
            r.deliveries.empty() ? 0 : r.deliveries.back().delivered;
        applyEmitSummary(summarizePort(streams[p].size(),
                                       cfg_.serviceCycles(),
                                       ports[p].firstIssue, last,
                                       ports[p].stalls),
                         r);
    }
    result.makespan = total == 0 ? 0 : makespan + 1;
    return result;
}

MultiPortResult
simulateMultiPort(const MemConfig &cfg, const ModuleMapping &map,
                  const std::vector<std::vector<Request>> &streams)
{
    PerCycleMultiPort backend(cfg, map);
    return backend.run(streams);
}

} // namespace cfva
