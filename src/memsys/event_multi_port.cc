#include "memsys/event_multi_port.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "memsys/event_driven.h"

namespace cfva {

using detail::PortState;

EventDrivenMultiPort::EventDrivenMultiPort(const MemConfig &cfg,
                                           const ModuleMapping &map,
                                           MapPath path,
                                           CollapseMode collapse)
    : cfg_(cfg), map_(map), slicer_(map, path),
      single_(cfg, map, path, collapse), retire_(cfg.modules()),
      retireBlocked_(cfg.modules(), 0)
{
    cfva_assert(map.moduleBits() == cfg.m,
                "mapping has 2^", map.moduleBits(),
                " modules but config expects 2^", cfg.m);
    modules_.reserve(cfg.modules());
    for (ModuleId i = 0; i < cfg.modules(); ++i)
        modules_.emplace_back(i, cfg.serviceCycles(),
                              cfg.inputBuffers, cfg.outputBuffers);
    startable_.reserve(cfg.modules());
}

AccessResult
EventDrivenMultiPort::runSingle(const std::vector<Request> &stream,
                                DeliveryArena *arena)
{
    // EventDrivenMemorySystem::run self-resets, so the persistent
    // engine behaves exactly like a freshly built one.
    return single_.run(stream, arena);
}

MultiPortResult
EventDrivenMultiPort::run(
    const std::vector<std::vector<Request>> &streams,
    DeliveryArena *arena)
{
    cfva_assert(!streams.empty(), "need at least one port");
    if (streams.size() == 1)
        return detail::wrapSinglePort(runSingle(streams[0], arena));

    const unsigned n_ports = static_cast<unsigned>(streams.size());
    const Cycle t_cycles = cfg_.serviceCycles();

    // Reset the persistent simulation state (all empty after a
    // drained run) and size the per-port scratch for this access.
    std::vector<MemoryModule> &modules = modules_;
    for (auto &mod : modules)
        mod.reset();

    // Member scratch: clear() + resize() value-initializes the
    // PortStates while keeping the vector's own capacity.
    ports_.clear();
    ports_.resize(n_ports);
    std::vector<PortState> &ports = ports_;

    // Premap every stream before the event loop (bit-sliced for
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
        if (arena)
            ports[p].delivered = arena->acquire(streams[p].size());
        else
            ports[p].delivered.reserve(streams[p].size());
    }
    std::size_t delivered_total = 0;

    /** Pending service completions, keyed by ready cycle. */
    ModuleEventHeap &retire = retire_;
    retire.clear();

    /**
     * Per-port return-bus heaps.  A module with a nonempty output
     * buffer lives in exactly one: the heap of the port its
     * current head belongs to, keyed by the head's ready cycle.
     * Popping heap p's minimum IS port p's return-bus arbitration
     * (oldest ready first, lowest module number on ties).
     */
    std::vector<ModuleEventHeap> &outHeads = outHeads_;
    for (auto &heap : outHeads)
        heap.clear();
    while (outHeads.size() < n_ports)
        outHeads.emplace_back(cfg_.modules());

    /** In-flight request-bus arrivals, in issue order (several
     *  ports may issue in one cycle; times stay nondecreasing). */
    ArrivalQueue &arrivals = arrivals_;
    arrivals.clear();

    /** Modules whose finished service waits on a full output
     *  buffer; re-armed on the next delivery from that module. */
    std::vector<std::uint8_t> &retireBlocked = retireBlocked_;
    std::fill(retireBlocked.begin(), retireBlocked.end(),
              std::uint8_t{0});

    /** Scratch: modules that may start a service this cycle. */
    std::vector<ModuleId> &startable = startable_;

    /** Issue-priority scratch, hoisted like in the per-cycle loop. */
    order_.resize(n_ports);
    std::vector<unsigned> &order = order_;

    // Each port's issue target comes straight from the premapped
    // stream.
    auto targetModule = [&](unsigned p) -> ModuleId {
        const ModuleId target = portMods_[p][ports[p].next];
        cfva_assert(target < cfg_.modules(),
                    "mapping produced module ", target,
                    " outside 2^", cfg_.m);
        return target;
    };

    const Cycle limit = detail::wedgeLimit(cfg_, total, n_ports);
    const Cycle never = std::numeric_limits<Cycle>::max();

    Cycle makespan = 0;
    for (Cycle now = 0; delivered_total < total;
         /* advanced at the bottom */) {
        cfva_assert(now <= limit, "multi-port simulation wedged at "
                    "cycle ", now);
        startable.clear();

        // 1. Retire finished services into output buffers.  A full
        //    output buffer parks the module on retireBlocked until
        //    a delivery from that module frees a slot.
        while (!retire.empty() && retire.top().time <= now) {
            const ModuleEvent e = retire.pop();
            MemoryModule &mod = modules[e.module];
            const Delivery *head_before = mod.outputHead();
            mod.retire(now);
            if (mod.busy()) {
                retireBlocked[e.module] = 1;
                continue;
            }
            if (!head_before) {
                const Delivery *head = mod.outputHead();
                outHeads[head->port].push(e.module, head->ready);
            }
            startable.push_back(e.module);
        }

        // 2. Per-port return buses, in port order: popping heap p's
        //    minimum delivers port p's oldest ready head.  A pop
        //    that reveals a head for a later port files the module
        //    in that port's heap in time for its turn this cycle —
        //    the same visibility the per-cycle scan has.
        for (unsigned p = 0; p < n_ports; ++p) {
            if (outHeads[p].empty() || outHeads[p].top().time > now)
                continue;
            const ModuleEvent e = outHeads[p].pop();
            MemoryModule &mod = modules[e.module];
            Delivery d = mod.popOutput();
            cfva_assert(d.ready == e.time && d.port == p,
                        "output head desynchronized on module ",
                        e.module);
            d.delivered = now;
            ports[p].delivered.push_back(d);
            ++delivered_total;
            makespan = now;
            if (const Delivery *head = mod.outputHead())
                outHeads[head->port].push(e.module, head->ready);
            if (retireBlocked[e.module]) {
                // The freed slot lets the parked service retire at
                // the next cycle's step 1 (this cycle's retire step
                // has already passed, as in the per-cycle model).
                retireBlocked[e.module] = 0;
                retire.push(e.module, now + 1);
            }
        }

        // 3. Start new services.  Only a retirement (above) or a
        //    request-bus arrival this cycle can make one possible.
        while (!arrivals.empty() && arrivals.front().time <= now) {
            startable.push_back(arrivals.front().module);
            arrivals.pop();
        }
        for (ModuleId id : startable) {
            MemoryModule &mod = modules[id];
            if (mod.busy())
                continue;
            mod.tryStart(now);
            if (mod.busy())
                retire.push(id, now + t_cycles);
        }

        // 4. Issue: least-issued port first (identical rotation to
        //    the per-cycle loop — the sort keys are the per-port
        //    issued counts, which change only on event cycles).
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
            PortState &ps = ports[p];
            if (ps.next >= streams[p].size())
                continue;
            const Request &req = streams[p][ps.next];
            const ModuleId tgt = targetModule(p);
            MemoryModule &mod = modules[tgt];
            if (mod.canAccept()) {
                Delivery d;
                d.addr = req.addr;
                d.element = req.element;
                d.module = tgt;
                d.port = p;
                d.issued = now;
                d.arrived = now + 1;
                mod.accept(d);
                arrivals.push(tgt, d.arrived);
                if (!ps.started) {
                    ps.started = true;
                    ps.firstIssue = now;
                }
                ++ps.next;
            } else {
                ++ps.stalls;
            }
        }

        if (delivered_total == total)
            break;

        // Advance to the next cycle at which any state can change.
        Cycle wake = never;
        bool outputPending = false;
        for (unsigned p = 0; p < n_ports; ++p)
            outputPending |= !outHeads[p].empty();
        if (outputPending) {
            // A pending output delivers next cycle.
            wake = now + 1;
        } else {
            if (!retire.empty())
                wake = std::min(wake,
                                std::max(retire.top().time, now + 1));
            if (!arrivals.empty())
                wake = std::min(wake, std::max(arrivals.front().time,
                                               now + 1));
        }
        if (wake > now + 1) {
            for (unsigned p = 0; p < n_ports; ++p) {
                if (ports[p].next < streams[p].size()
                    && modules[targetModule(p)].canAccept()) {
                    // This port's pending issue succeeds next cycle.
                    wake = now + 1;
                    break;
                }
            }
        }
        cfva_assert(wake != never,
                    "no pending events but the access has not "
                    "drained (delivered ", delivered_total, " of ",
                    total, ")");

        // Every skipped cycle is, for each unfinished port, one
        // issue retry against an unchanged (full) input buffer:
        // account the stalls in bulk.
        for (unsigned p = 0; p < n_ports; ++p) {
            if (ports[p].next < streams[p].size())
                ports[p].stalls += wake - now - 1;
        }
        now = wake;
    }

    return detail::assemblePortResults(cfg_, streams, ports, makespan);
}

MultiPortResult
simulateMultiPortEventDriven(
    const MemConfig &cfg, const ModuleMapping &map,
    const std::vector<std::vector<Request>> &streams)
{
    EventDrivenMultiPort backend(cfg, map);
    return backend.run(streams);
}

} // namespace cfva
