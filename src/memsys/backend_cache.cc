#include "memsys/backend_cache.h"

#include <utility>

#include "theory/theory_backend.h"

namespace cfva {

template <typename Make>
MemoryBackend &
BackendCache::lookup(const Key &key, Make &&make)
{
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].key == key) {
            ++stats_.hits;
            if (i != 0)
                std::swap(entries_[0], entries_[i]);
            return *entries_[0].backend;
        }
    }
    ++stats_.misses;
    entries_.insert(entries_.begin(), Entry{key, make()});
    return *entries_.front().backend;
}

MemoryBackend &
BackendCache::backendFor(EngineKind engine, const MemConfig &cfg,
                         const ModuleMapping &map, MapPath path,
                         CollapseMode collapse)
{
    const Key key{engine,           cfg.m, cfg.t, cfg.inputBuffers,
                  cfg.outputBuffers, &map, false, path,
                  collapse};
    return lookup(key, [&] {
        return makeMemoryBackend(engine, cfg, map, path, collapse);
    });
}

TheoryBackend &
BackendCache::theoryBackendFor(const MemConfig &cfg,
                               const ModuleMapping &map, MapPath path)
{
    const Key key{EngineKind::EventDriven, cfg.m, cfg.t,
                  cfg.inputBuffers, cfg.outputBuffers, &map,
                  /*theory=*/true, path, CollapseMode::On};
    return static_cast<TheoryBackend &>(lookup(key, [&] {
        return std::unique_ptr<MemoryBackend>(
            std::make_unique<TheoryBackend>(cfg, map, path));
    }));
}

FastPathStats
BackendCache::fastPathStats() const
{
    FastPathStats total;
    for (const auto &e : entries_)
        total += e.backend->fastPathStats();
    return total;
}

} // namespace cfva
