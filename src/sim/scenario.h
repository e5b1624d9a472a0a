/**
 * @file
 * Declarative scenario grids for batch simulation.
 *
 * A ScenarioGrid is the cross product of mapping configurations
 * (kind, t, lambda, s/y/m overrides, buffering), stride sets, access
 * lengths, start addresses, workload programs (sim/workload.h),
 * port counts, and per-port traffic mixes (PortMix).  expand()
 * flattens the grid into a dense, deterministically ordered list of
 * independent simulation jobs that the SweepEngine fans out over a
 * thread pool.
 * Randomized start addresses are drawn during expansion from the
 * grid's seed, so the job list — and therefore the whole sweep — is
 * reproducible at any thread count.
 */

#ifndef CFVA_SIM_SCENARIO_H
#define CFVA_SIM_SCENARIO_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/bits.h"
#include "core/config.h"
#include "sim/workload.h"

namespace cfva::sim {

/**
 * How the P simultaneous streams of a multi-port scenario differ
 * from one another.  Port p accesses with stride
 * @c base_stride * multipliers[p % multipliers.size()] from its own
 * staggered base block; a negative multiplier walks the block
 * descending (the planner mirrors it from the ascending twin).  An
 * empty multiplier list means every port clones the base stride —
 * the historical behavior, and the default grid point.
 */
struct PortMix
{
    /** Largest accepted multiplier magnitude (validate() and the
     *  CLI share this one bound). */
    static constexpr std::int64_t kMaxMultiplier =
        std::int64_t{1} << 20;

    /** Per-port signed stride multipliers, cycled over the ports;
     *  empty = all ports use the base stride unchanged. */
    std::vector<std::int64_t> multipliers;

    /** The effective multiplier of port @p p. */
    std::int64_t
    multiplierFor(unsigned p) const
    {
        return multipliers.empty()
                   ? 1
                   : multipliers[p % multipliers.size()];
    }

    /** Report label, e.g. "1|3|-1"; "1" for the clone mix. */
    std::string label() const;

    /** Rejects zero multipliers and magnitudes above
     *  kMaxMultiplier. */
    void validate() const;

    bool operator==(const PortMix &o) const = default;
};

/** One fully expanded simulation job. */
struct Scenario
{
    std::size_t index = 0;        //!< dense job id (expansion order)
    std::size_t mappingIndex = 0; //!< into ScenarioGrid::mappings
    std::size_t portMixIndex = 0; //!< into ScenarioGrid::portMixes
    std::size_t workloadIndex = 0; //!< into ScenarioGrid::workloads
    std::uint64_t stride = 1;     //!< raw stride value S
    std::uint64_t length = 0;     //!< elements accessed
    Addr a1 = 0;                  //!< start address
    unsigned ports = 1;           //!< simultaneous vector streams

    bool operator==(const Scenario &o) const = default;
};

/**
 * The declarative cross product.  Axes left at their defaults
 * contribute a single point; an empty mandatory axis (mappings or
 * strides) expands to zero jobs.
 */
struct ScenarioGrid
{
    /** Mapping/memory configurations; validated before expansion. */
    std::vector<VectorUnitConfig> mappings;

    /** Raw stride values; use addFamilies() for (sigma, x) sets. */
    std::vector<std::uint64_t> strides;

    /** Longest access length expand() accepts. */
    static constexpr std::uint64_t kMaxLength = 0xFFFFFFFFull;

    /**
     * Access lengths in elements, at most kMaxLength.  The value 0
     * means "the full register length of the mapping under test"
     * and is resolved per mapping during expansion.  Defaults to one
     * full-register access.
     */
    std::vector<std::uint64_t> lengths = {0};

    /** Explicit start addresses. */
    std::vector<Addr> starts = {0};

    /**
     * Extra randomized start addresses per (mapping, stride,
     * length, ports) combination, drawn deterministically from
     * @ref seed during expansion.
     */
    unsigned randomStarts = 0;

    /** Port counts; ports > 1 use the multi-port backends. */
    std::vector<unsigned> ports = {1};

    /**
     * Per-port traffic mixes, crossed with every other axis.  The
     * default single clone mix reproduces the historical grids
     * (every port issues the base stride).
     */
    std::vector<PortMix> portMixes = {PortMix{}};

    /**
     * Workload programs, crossed with every other axis.  The
     * default Single workload reproduces the historical one-access
     * scenarios bit for bit.
     */
    std::vector<Workload> workloads = {Workload{}};

    /** Seed for the randomized start addresses. */
    std::uint64_t seed = 0x5EEDF00Dull;

    /** Address distance between simultaneous port streams. */
    Addr portStagger = Addr{1} << 20;

    /** Randomized starts are drawn below this bound. */
    Addr randomStartBound = Addr{1} << 24;

    /**
     * Appends the strides {sigma * 2^x : x in [xLo, xHi], sigma in
     * @p sigmas} to the stride axis.  @p sigmas must be odd.
     */
    void addFamilies(unsigned xLo, unsigned xHi,
                     const std::vector<std::uint64_t> &sigmas);

    /** Number of jobs expand() will produce. */
    std::size_t jobCount() const;

    /**
     * Fails on a grid expand() cannot expand: calls validate() on
     * every mapping configuration, port mix and workload, and fails
     * on a zero stride or port count, a length or an execute latency
     * above kMaxLength, a stride that, times a port's mix multiplier
     * (and twice that for Retune), exceeds 2^63 - 1, or a
     * descending port whose block, above its base start + p x
     * portStagger (mod 2^64), passes address 2^64 - 1.
     */
    void validate() const;

    /**
     * Flattens the grid into jobCount() jobs in deterministic order
     * and resolves randomized starts, after validate().
     */
    std::vector<Scenario> expand() const;
};

} // namespace cfva::sim

#endif // CFVA_SIM_SCENARIO_H
