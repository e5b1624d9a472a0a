#include "memsys/backend.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "memsys/event_multi_port.h"
#include "memsys/multi_port.h"

namespace cfva {

const char *
to_string(EngineKind engine)
{
    switch (engine) {
      case EngineKind::PerCycle:
        return "per-cycle";
      case EngineKind::EventDriven:
        return "event-driven";
    }
    return "?";
}

const char *
to_string(TierPolicy tier)
{
    switch (tier) {
      case TierPolicy::SimulateAlways:
        return "sim";
      case TierPolicy::TheoryFirst:
        return "theory";
      case TierPolicy::AuditBoth:
        return "audit";
    }
    return "?";
}

const char *
to_string(FallbackReason reason)
{
    switch (reason) {
      case FallbackReason::None:
        return "none";
      case FallbackReason::Conflicted:
        return "conflicted";
      case FallbackReason::MultiPort:
        return "multiport";
      case FallbackReason::Unproven:
        return "unproven";
      case FallbackReason::Dynamic:
        return "dynamic";
    }
    return "?";
}

std::vector<Delivery>
DeliveryArena::acquire(std::size_t capacity)
{
    ++acquires_;
    std::vector<Delivery> buf;
    if (!pool_.empty()) {
        buf = std::move(pool_.back());
        pool_.pop_back();
        retainedBytes_ -= buf.capacity() * sizeof(Delivery);
        buf.clear();
        ++reuses_;
    }
    buf.reserve(capacity);
    return buf;
}

void
DeliveryArena::release(std::vector<Delivery> &&buf)
{
    if (buf.capacity() == 0)
        return; // nothing worth pooling
    if (buf.capacity() > kMaxPooledCapacity
        || pool_.size() >= kMaxPooled) {
        // Oversize buffers (and overflow beyond the pool bound) are
        // freed here rather than retained: the vector's heap block
        // is returned as `buf` goes out of scope.
        return;
    }
    noteRetained(buf.capacity() * sizeof(Delivery));
    pool_.push_back(std::move(buf));
}

std::vector<Request>
DeliveryArena::acquireRequests(std::size_t capacity)
{
    ++acquires_;
    std::vector<Request> buf;
    if (!reqPool_.empty()) {
        buf = std::move(reqPool_.back());
        reqPool_.pop_back();
        retainedBytes_ -= buf.capacity() * sizeof(Request);
        buf.clear();
        ++reuses_;
    }
    buf.reserve(capacity);
    return buf;
}

void
DeliveryArena::releaseRequests(std::vector<Request> &&buf)
{
    if (buf.capacity() == 0)
        return;
    if (buf.capacity() > kMaxPooledCapacity
        || reqPool_.size() >= kMaxPooled) {
        return;
    }
    noteRetained(buf.capacity() * sizeof(Request));
    reqPool_.push_back(std::move(buf));
}

void
DeliveryArena::noteRetained(std::size_t bytes)
{
    retainedBytes_ += bytes;
    peakBytes_ = std::max(peakBytes_, retainedBytes_);
}

std::size_t
DeliveryArena::pooledBytes() const
{
    std::size_t bytes = 0;
    for (const auto &b : pool_)
        bytes += b.capacity() * sizeof(Delivery);
    for (const auto &b : reqPool_)
        bytes += b.capacity() * sizeof(Request);
    return bytes;
}

std::unique_ptr<MemoryBackend>
makeMemoryBackend(EngineKind engine, const MemConfig &cfg,
                  const ModuleMapping &map, MapPath path,
                  CollapseMode collapse)
{
    switch (engine) {
      case EngineKind::PerCycle:
        return std::make_unique<PerCycleMultiPort>(cfg, map, path,
                                                   collapse);
      case EngineKind::EventDriven:
        return std::make_unique<EventDrivenMultiPort>(cfg, map, path,
                                                      collapse);
    }
    cfva_panic("unreachable engine kind");
}

namespace detail {

MultiPortResult
wrapSinglePort(AccessResult &&r)
{
    MultiPortResult out;
    out.makespan = r.deliveries.empty() ? 0 : r.lastDelivery + 1;
    out.ports.push_back(std::move(r));
    return out;
}

} // namespace detail

} // namespace cfva
