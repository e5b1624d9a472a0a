/**
 * @file
 * Workload programs as a sweep-grid axis.
 *
 * PRs 1-4 treated "one raw access" as the unit of simulation; the
 * paper's headline arguments are about *programs*: Sec. 5F shows
 * conflict-free delivery is what makes LOAD/EXECUTE chaining
 * practical, and Sec. 6 argues against dynamic schemes [11] via the
 * relayout cost they pay *between* accesses.  A Workload names a
 * short access sequence that a scenario executes end to end:
 *
 *  - Single:  the historical one-access scenario (the default grid
 *             point; outcomes are bit-identical to the pre-workload
 *             engine).
 *  - Chain:   one LOAD followed by an EXECUTE of pipeline depth
 *             execLatency, costed by the Sec. 5F chaining model in
 *             closed form: a load of L elements adds (L - 1) + e
 *             decoupled and e chained, and chains iff it was
 *             conflict free.  The outcome carries decoupled vs
 *             chained program totals and the chainable flag.
 *  - Retune:  2 x retunePeriod accesses in two stride phases (the
 *             base stride, then twice it — a row walk followed by a
 *             column walk).  A DynamicTuned unit re-tunes its field
 *             interleave to each incoming family, charging the
 *             DynamicFieldMapping::displacedBy relayout cycles; the
 *             static mappings run both phases untouched.  This puts
 *             the paper's Sec. 6 argument against [11] on the grid.
 *  - Stencil: a 3-tap stencil step — three shifted LOADs, an
 *             EXECUTE chained on the last load, one STORE — the
 *             multi-stream kernel shape of vectorized stencils.
 *
 * Every access of a workload dispatches through
 * VectorAccessUnit::execute or executePorts, to the worker's cached
 * oracle or evaluator, so program-level results are bit-identical
 * across the two by the same differential argument as raw accesses;
 * the retune relayout charge is analytic and tier-independent by
 * construction.
 */

#ifndef CFVA_SIM_WORKLOAD_H
#define CFVA_SIM_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/access_unit.h"

namespace cfva::sim {

/** Which access sequence a scenario executes. */
enum class WorkloadKind
{
    Single,  //!< one raw access (the historical scenario)
    Chain,   //!< LOAD -> EXECUTE, Sec. 5F chaining comparison
    Retune,  //!< two stride phases with dynamic-mapping relayout
    Stencil, //!< 3 shifted LOADs -> chained EXECUTE -> STORE
};

const char *to_string(WorkloadKind kind);

/** One named workload program, a first-class grid axis. */
struct Workload
{
    WorkloadKind kind = WorkloadKind::Single;

    /** Execute-pipeline depth of Chain/Stencil EXECUTE steps. */
    Cycle execLatency = 1;

    /** Accesses per stride phase of a Retune sequence. */
    unsigned retunePeriod = 1;

    /** Report label, e.g. "single", "chain:e4", "retune:p2",
     *  "stencil:e1" (CSV-safe: no commas). */
    std::string label() const;

    /** Rejects zero execLatency / retunePeriod. */
    void validate() const;

    bool operator==(const Workload &o) const = default;
};

/**
 * Analytic relayout charge of re-tuning a dynamic field interleave
 * from field position @p pOld to @p pNew before an access touching
 * @p footprint elements: the displaced fraction of the footprint
 * (DynamicFieldMapping::displacedBy) must be read and rewritten
 * through 2^m modules of 2^t-cycle service time, i.e.
 * ceil(2 * T * displaced / M) cycles.  Engine-independent by
 * construction.
 */
Cycle retuneRelayoutCycles(unsigned m, unsigned pOld, unsigned pNew,
                           std::uint64_t footprint,
                           Cycle serviceCycles);

/**
 * Per-worker scratch for workload execution: re-tuned variant
 * VectorAccessUnits (a DynamicTuned mapping tuned to the phase's
 * stride family) and a memo of relayout charges.  Like
 * BackendCache/DeliveryArena, one instance per worker thread; the
 * sweep engine keeps one in each WorkerArena, declared before the
 * worker's BackendCache so cached backends (which reference the
 * variant mappings) are destroyed first.
 */
class WorkloadUnits
{
  public:
    /**
     * The variant of @p cfg (the grid's mapping @p mappingIndex)
     * re-tuned to field position @p tune, built on first use and
     * reused afterwards.
     */
    const VectorAccessUnit &retuned(const VectorUnitConfig &cfg,
                                    std::size_t mappingIndex,
                                    unsigned tune);

    /** Memoized retuneRelayoutCycles (displacedBy is O(footprint)
     *  per probe; grids repeat the same few tunings). */
    Cycle relayoutCycles(unsigned m, unsigned pOld, unsigned pNew,
                         std::uint64_t footprint,
                         Cycle serviceCycles);

    /** Distinct variant units currently cached (for tests). */
    std::size_t size() const { return units_.size(); }

  private:
    struct UnitKey
    {
        std::size_t mapping = 0;
        unsigned tune = 0;

        bool operator==(const UnitKey &o) const = default;
    };

    struct CostKey
    {
        unsigned m = 0;
        unsigned pOld = 0;
        unsigned pNew = 0;
        std::uint64_t footprint = 0;
        Cycle serviceCycles = 0;

        bool operator==(const CostKey &o) const = default;
    };

    // Linear scans, as in BackendCache: a worker sees a
    // handful of (mapping, tune) pairs per sweep.
    std::vector<std::pair<UnitKey, std::unique_ptr<VectorAccessUnit>>>
        units_;
    std::vector<std::pair<CostKey, Cycle>> costs_;
};

} // namespace cfva::sim

#endif // CFVA_SIM_WORKLOAD_H
