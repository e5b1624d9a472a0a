/**
 * @file
 * Per-worker cache of MemoryBackend instances.
 *
 * The sweep hot path used to rebuild a backend — modules with their
 * buffer deques, event heaps, issue scratch — for every simulated
 * access.  The backends are stateless across run() calls (they
 * self-reset), so one instance per (engine, memory shape, mapping)
 * can serve every scenario a worker executes.  The cache owns those
 * instances and hands out references; hit/miss counters make the
 * saved setup cost observable (cfva_sweep --bench reports them).
 *
 * Not thread-safe: use one cache per worker thread, exactly like
 * DeliveryArena.  The mappings passed in must outlive the cache —
 * in the sweep engine both live in the same WorkerArena, with the
 * cache declared after the units so it is destroyed first.
 *
 * The port count is deliberately NOT part of the key: the backends
 * size their per-port scratch in place on each run, so a single
 * instance serves every port count of a mapping — strictly more
 * reuse than a (engine, ports, config) key would allow.
 */

#ifndef CFVA_MEMSYS_BACKEND_CACHE_H
#define CFVA_MEMSYS_BACKEND_CACHE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "memsys/backend.h"

namespace cfva {

class TheoryBackend;

/** Aggregate hit/miss counters, mergeable across workers. */
struct BackendCacheStats
{
    std::uint64_t hits = 0;   //!< lookups served by a live backend
    std::uint64_t misses = 0; //!< lookups that built a new backend

    BackendCacheStats &
    operator+=(const BackendCacheStats &o)
    {
        hits += o.hits;
        misses += o.misses;
        return *this;
    }

    bool operator==(const BackendCacheStats &o) const = default;
};

/** Owns and reuses MemoryBackend instances for one worker. */
class BackendCache
{
  public:
    /**
     * The backend implementing @p engine over @p cfg and @p map,
     * built on first use and reused afterwards.  @p map must
     * outlive the cache.  @p path is part of the key: a bit-sliced
     * and a scalar-premap variant of the same shape never alias one
     * entry (the differential harness holds both live at once).
     * @p collapse is part of the key for the same reason: the
     * collapse-off oracle and the collapse-on fast path must never
     * alias (AuditBoth holds both live at once).
     */
    MemoryBackend &backendFor(EngineKind engine, const MemConfig &cfg,
                              const ModuleMapping &map,
                              MapPath path = MapPath::BitSliced,
                              CollapseMode collapse = CollapseMode::On);

    /**
     * The analytic tier over the same shape.  It steps what it
     * cannot claim on the event-driven engines, so neither the
     * engine nor the collapse knob is part of its key.  Cached
     * separately from the plain simulation backend (the key carries
     * a tier bit) so TierPolicy::AuditBoth can hold both at once.
     */
    TheoryBackend &theoryBackendFor(const MemConfig &cfg,
                                    const ModuleMapping &map,
                                    MapPath path = MapPath::BitSliced);

    const BackendCacheStats &stats() const { return stats_; }

    /** Summed collapse/memo counters over every cached backend. */
    FastPathStats fastPathStats() const;

    /** Distinct backends currently cached. */
    std::size_t size() const { return entries_.size(); }

    /** Drops every cached backend; counters keep accumulating. */
    void clear() { entries_.clear(); }

  private:
    struct Key
    {
        EngineKind engine = EngineKind::PerCycle;
        unsigned m = 0;
        unsigned t = 0;
        unsigned inputBuffers = 0;
        unsigned outputBuffers = 0;
        const ModuleMapping *map = nullptr;
        bool theory = false; //!< analytic tier (engine and
                             //!< collapse fixed)
        MapPath path = MapPath::BitSliced; //!< premap variant
        CollapseMode collapse = CollapseMode::On; //!< fast-path gate

        bool operator==(const Key &o) const = default;
    };

    struct Entry
    {
        Key key;
        std::unique_ptr<MemoryBackend> backend;
    };

    /** The entry for @p key, built by @p make on a miss. */
    template <typename Make>
    MemoryBackend &lookup(const Key &key, Make &&make);

    // Linear scan with move-to-front: a worker touches a handful
    // of (engine, mapping) pairs per sweep, and the hot lookups
    // repeat the front entry, so a hash map would only add cost.
    std::vector<Entry> entries_;
    BackendCacheStats stats_;
};

} // namespace cfva

#endif // CFVA_MEMSYS_BACKEND_CACHE_H
