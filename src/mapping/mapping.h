/**
 * @file
 * Abstract address-mapping interface.
 *
 * The paper (Sec. 2) models the memory subsystem as M = 2^m modules
 * addressed through a mapping F that sends the one-dimensional
 * address A (bits a_{n-1..0}) to a two-dimensional location
 * (module, displacement).  Conflicts depend only on the module
 * component b = F(A); the displacement component is still required so
 * that data actually stored through a mapping can be read back (the
 * vproc substrate uses the full bijection).
 */

#ifndef CFVA_MAPPING_MAPPING_H
#define CFVA_MAPPING_MAPPING_H

#include <cstdint>
#include <memory>
#include <string>

#include "common/bits.h"

namespace cfva {

/** A (module, displacement) pair: the image of an address. */
struct MappedLocation
{
    ModuleId module;
    Addr displacement;

    bool operator==(const MappedLocation &o) const = default;
};

/**
 * Memory-module component of an address mapping, plus the
 * displacement needed to make the map invertible.
 *
 * Implementations must guarantee that (moduleOf(A), displacementOf(A))
 * is injective over the address space, and provide addressOf() as the
 * inverse on the image.  Tests exercise the round trip for every
 * concrete mapping.
 */
class ModuleMapping
{
  public:
    virtual ~ModuleMapping() = default;

    /** The module-number component b = F(A) (paper Sec. 2). */
    virtual ModuleId moduleOf(Addr a) const = 0;

    /** The displacement of @p a inside its module. */
    virtual Addr displacementOf(Addr a) const = 0;

    /**
     * Inverse of the (module, displacement) pair.  Only defined for
     * pairs actually produced by locate(); implementations may assert
     * on unreachable pairs.
     */
    virtual Addr addressOf(ModuleId module, Addr displacement) const = 0;

    /** Number of module-number bits m. */
    virtual unsigned moduleBits() const = 0;

    /** Human-readable mapping name for tables and traces. */
    virtual std::string name() const = 0;

    /** The full two-dimensional location of @p a. */
    MappedLocation
    locate(Addr a) const
    {
        return {moduleOf(a), displacementOf(a)};
    }

    /** Number of memory modules M = 2^m. */
    ModuleId
    modules() const
    {
        return ModuleId{1} << moduleBits();
    }
};

/** Owning handle used throughout the public API. */
using MappingPtr = std::unique_ptr<ModuleMapping>;

} // namespace cfva

#endif // CFVA_MAPPING_MAPPING_H
