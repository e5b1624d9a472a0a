#include "memsys/backend_cache.h"

#include <utility>

#include "theory/theory_backend.h"

namespace cfva {

BackendCache::BackendCache() = default;

BackendCache::~BackendCache() = default;

template <typename Backend>
Backend &
BackendCache::lookup(std::vector<Entry<Backend>> &entries,
                     const MemConfig &cfg, const ModuleMapping &map)
{
    const Key key{cfg.m, cfg.t, cfg.inputBuffers, cfg.outputBuffers,
                  &map};
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].key == key) {
            ++stats_.hits;
            if (i != 0)
                std::swap(entries[0], entries[i]);
            return *entries[0].backend;
        }
    }
    ++stats_.misses;
    entries.insert(entries.begin(),
                   Entry<Backend>{key,
                                  std::make_unique<Backend>(cfg, map)});
    return *entries.front().backend;
}

MemorySystem &
BackendCache::backendFor(const MemConfig &cfg, const ModuleMapping &map)
{
    return lookup(oracles_, cfg, map);
}

TheoryBackend &
BackendCache::theoryBackendFor(const MemConfig &cfg,
                               const ModuleMapping &map)
{
    return lookup(evaluators_, cfg, map);
}

FastPathStats
BackendCache::fastPathStats() const
{
    FastPathStats total;
    for (const auto &e : evaluators_)
        total += e.backend->fastPathStats();
    return total;
}

} // namespace cfva
