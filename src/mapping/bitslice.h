/**
 * @file
 * Names kept only until ROADMAP item 1 drops them from the
 * benchmark.  The library premaps every stream through the
 * mapping's own moduleOf(), one element at a time, and constructs
 * no BitSlicedMapper.
 */

#ifndef CFVA_MAPPING_BITSLICE_H
#define CFVA_MAPPING_BITSLICE_H

#include <cstddef>

#include "mapping/mapping.h"

namespace cfva {

/** Ignored everywhere; the name stays only until ROADMAP item 1
 *  drops it from the benchmark. */
enum class MapPath
{
    BitSliced,
};

/** Premaps through ModuleMapping::moduleOf, exactly as the library
 *  does; kept only until ROADMAP item 1 drops it from the
 *  benchmark.  @p map must outlive the mapper. */
class BitSlicedMapper
{
  public:
    explicit BitSlicedMapper(const ModuleMapping &map) : map_(&map) {}

    /** Always false: no address takes a packed-lane path. */
    bool bitSliced() const { return false; }

    /** out[i] = moduleOf(addrAt(i)) for @p n elements. */
    template <class AddrAt>
    void
    mapWith(AddrAt &&addrAt, std::size_t n, ModuleId *out) const
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = map_->moduleOf(addrAt(i));
    }

  private:
    const ModuleMapping *map_;
};

} // namespace cfva

#endif // CFVA_MAPPING_BITSLICE_H
