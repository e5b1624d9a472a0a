/**
 * @file
 * Configuration of the vector memory-access unit.
 *
 * Gathers the paper's parameters in one validated struct: the
 * memory shape (matched M = T, simple unmatched, or sectioned
 * M = T^2), the register length L = 2^lambda, and the transform
 * parameters s and y with the paper's recommended defaults
 * s = lambda-t (Sec. 3.3) and y = 2(lambda-t)+1 (Sec. 4.3).
 */

#ifndef CFVA_CORE_CONFIG_H
#define CFVA_CORE_CONFIG_H

#include <cstdint>
#include <optional>
#include <string>

#include "common/bits.h"
#include "memsys/backend.h"
#include "memsys/memory_system.h"

namespace cfva {

/** Which memory organization to build. */
enum class MemoryKind
{
    /** Sec. 3: M = T modules, Eq. 1 mapping. */
    Matched,

    /**
     * Sec. 4 opening: M = 2^m > T modules, Eq. 1 mapping with t
     * replaced by m; in-order access covers [s, s+m-t] and
     * out-of-order extends below s.
     */
    SimpleUnmatched,

    /** Sec. 4.1: M = T^2 modules, Eq. 2 sectioned mapping. */
    Sectioned,

    /**
     * Prior art [11] (Harper & Linebarger): field interleaving
     * tuned so one stride family is conflict free in order.  The
     * tuning is fixed per unit (dynamicTune); every other family
     * takes whatever latency the simulator measures — the workload
     * the paper's static windows are argued against.
     */
    DynamicTuned,

    /**
     * Prior art [12] (Rau): pseudo-random GF(2) interleaving.  No
     * family is guaranteed minimum latency and none is
     * pathologically serialized; all accesses issue in order.
     */
    PseudoRandom,
};

const char *to_string(MemoryKind kind);

// EngineKind (per-cycle vs event-driven) lives with the backends it
// selects: memsys/backend.h, included above.

/** Validated parameters of a vector access unit. */
struct VectorUnitConfig
{
    MemoryKind kind = MemoryKind::Matched;

    unsigned t = 3;      //!< log2 of memory/processor cycle ratio
    unsigned lambda = 7; //!< log2 of the vector-register length

    /**
     * log2 of the module count.  Defaults by kind: t (matched),
     * 2t (sectioned); must be set explicitly for SimpleUnmatched.
     */
    std::optional<unsigned> mOverride;

    /** XOR distance; default s = lambda - t (Sec. 3.3). */
    std::optional<unsigned> sOverride;

    /** Section position; default y = 2(lambda-t)+1 (Sec. 4.3). */
    std::optional<unsigned> yOverride;

    unsigned inputBuffers = 2;  //!< q (the Sec. 3.1 bound needs 2)
    unsigned outputBuffers = 1; //!< q'

    /**
     * DynamicTuned only: the field position p — the stride family
     * the interleave is tuned for.
     */
    unsigned dynamicTune = 0;

    /** PseudoRandom only: seed of the GF(2) matrix. */
    std::uint64_t prandSeed = 0x52A5ull;

    /** Which reference engine the simulation tier of access() /
     *  execute() / executePorts() runs on — honored for every port
     *  count.  The theory tier always steps on the event-driven
     *  engines. */
    EngineKind engine = EngineKind::PerCycle;

    unsigned m() const;
    unsigned s() const;
    unsigned y() const;

    std::uint64_t registerLength() const
    {
        return std::uint64_t{1} << lambda;
    }

    Cycle serviceCycles() const { return Cycle{1} << t; }

    /** The memsys shape implied by this configuration. */
    MemConfig memConfig() const;

    /**
     * Checks every paper precondition (s >= t, y >= s+t,
     * lambda >= m, ...); calls cfva_fatal with a diagnostic on the
     * first violation.
     */
    void validate() const;

    /**
     * One-line summary for logs and bench headers.  Deliberately
     * excludes the engine: both engines produce identical results,
     * and sweep reports keyed by this label must compare equal
     * across engines (the cfva_sweep cross-check relies on it).
     */
    std::string describe() const;
};

/** The paper's running matched example: L = 128, M = T = 8, s = 4. */
VectorUnitConfig paperMatchedExample();

/** The paper's unmatched example: L = 128, T = 8, M = 64, s = 4,
 *  y = 9. */
VectorUnitConfig paperSectionedExample();

} // namespace cfva

#endif // CFVA_CORE_CONFIG_H
