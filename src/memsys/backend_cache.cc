#include "memsys/backend_cache.h"

#include <utility>

#include "memsys/memory_system.h"
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
BackendCache::backendFor(const MemConfig &cfg, const ModuleMapping &map)
{
    const Key key{cfg.m, cfg.t, cfg.inputBuffers, cfg.outputBuffers,
                  &map, /*theory=*/false};
    return lookup(key, [&] {
        return std::unique_ptr<MemoryBackend>(
            std::make_unique<MemorySystem>(cfg, map));
    });
}

TheoryBackend &
BackendCache::theoryBackendFor(const MemConfig &cfg,
                               const ModuleMapping &map)
{
    const Key key{cfg.m, cfg.t, cfg.inputBuffers, cfg.outputBuffers,
                  &map, /*theory=*/true};
    return static_cast<TheoryBackend &>(lookup(key, [&] {
        return std::unique_ptr<MemoryBackend>(
            std::make_unique<TheoryBackend>(cfg, map));
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
