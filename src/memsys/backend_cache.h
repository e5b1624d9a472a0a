/**
 * @file
 * Per-worker cache of oracle and evaluator instances.
 *
 * The sweep hot path used to rebuild a backend — modules with their
 * buffers, the stepper's heaps, the solver's memo, issue scratch —
 * for every access.  The backends are stateless across runs (they
 * self-reset), so one instance per (tier, memory shape, mapping) can
 * serve every scenario a worker executes.  The cache owns those
 * instances, one typed list per tier, and hands out references;
 * hit/miss counters make the saved setup cost observable
 * (SweepRunStats reports them).  VectorAccessUnit::execute uses a
 * local cache when its caller passes none, so every access takes
 * the same path.
 *
 * Not thread-safe: use one cache per worker thread, exactly like
 * DeliveryArena.  The mappings passed in must outlive the cache —
 * in the sweep engine both live in the same WorkerArena, with the
 * cache declared after the units so it is destroyed first.
 *
 * The port count is deliberately NOT part of the key: the backends
 * size their per-port scratch in place on each run, so a single
 * instance serves every port count of a mapping — strictly more
 * reuse than a (tier, ports, config) key would allow.
 */

#ifndef CFVA_MEMSYS_BACKEND_CACHE_H
#define CFVA_MEMSYS_BACKEND_CACHE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "mapping/mapping.h"
#include "memsys/memory_system.h"
#include "memsys/steady_state.h"

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

/** Owns and reuses the oracle and evaluator instances of one
 *  worker. */
class BackendCache
{
  public:
    BackendCache();
    ~BackendCache();

    /**
     * The stepped oracle (memsys/memory_system.h) over @p cfg and
     * @p map, built on first use and reused afterwards.  @p map
     * must outlive the cache.
     */
    MemorySystem &backendFor(const MemConfig &cfg,
                             const ModuleMapping &map);

    /**
     * The evaluator over the same shape, kept in its own list so
     * TierPolicy::AuditBoth can hold both at once.
     */
    TheoryBackend &theoryBackendFor(const MemConfig &cfg,
                                    const ModuleMapping &map);

    const BackendCacheStats &stats() const { return stats_; }

    /** Summed collapse/memo counters over every cached evaluator
     *  (the oracle has no fast path). */
    FastPathStats fastPathStats() const;

    /** Distinct backends currently cached, both tiers. */
    std::size_t size() const
    {
        return oracles_.size() + evaluators_.size();
    }

  private:
    struct Key
    {
        unsigned m = 0;
        unsigned t = 0;
        unsigned inputBuffers = 0;
        unsigned outputBuffers = 0;
        const ModuleMapping *map = nullptr;

        bool operator==(const Key &o) const = default;
    };

    template <typename Backend>
    struct Entry
    {
        Key key;
        std::unique_ptr<Backend> backend;
    };

    /** The entry of @p entries over (@p cfg, @p map), built on a
     *  miss. */
    template <typename Backend>
    Backend &lookup(std::vector<Entry<Backend>> &entries,
                    const MemConfig &cfg, const ModuleMapping &map);

    // Linear scans with move-to-front: a worker touches a handful
    // of mappings per sweep, and the hot lookups repeat the front
    // entry, so a hash map would only add cost.
    std::vector<Entry<MemorySystem>> oracles_;
    std::vector<Entry<TheoryBackend>> evaluators_;
    BackendCacheStats stats_;
};

} // namespace cfva

#endif // CFVA_MEMSYS_BACKEND_CACHE_H
