#include "memsys/event_multi_port.h"

#include "common/logging.h"

namespace cfva {

EventDrivenMultiPort::EventDrivenMultiPort(const MemConfig &cfg,
                                           const ModuleMapping &map,
                                           MapPath path,
                                           CollapseMode collapse)
    : cfg_(cfg), slicer_(map, path), single_(cfg, map, path, collapse)
{
    cfva_assert(map.moduleBits() == cfg.m,
                "mapping has 2^", map.moduleBits(),
                " modules but config expects 2^", cfg.m);
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

    // Premap every stream before the pass (bit-sliced for linear
    // mappings); issue attempts just index the result.
    if (portMods_.size() < streams.size())
        portMods_.resize(streams.size());
    for (std::size_t p = 0; p < streams.size(); ++p) {
        const std::vector<Request> &stream = streams[p];
        portMods_[p].resize(stream.size());
        slicer_.mapWith(
            [&stream](std::size_t i) { return stream[i].addr; },
            stream.size(), portMods_[p].data());
    }
    return stepper_.runPorts(cfg_, streams, portMods_, true, arena);
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
