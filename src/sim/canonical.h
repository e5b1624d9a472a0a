/**
 * @file
 * Inert names left over from scenario dedup, which was deleted: it
 * keyed every job serially before any worker started, and on every
 * benchmark workload the keying cost more than the executions it
 * saved.  Sweeps run every job of their slice.
 *
 * perfbench's trace mirror still names these in a branch that never
 * runs, so they stay until ROADMAP item 1 deletes that branch and,
 * with it, this header.
 */

#ifndef CFVA_SIM_CANONICAL_H
#define CFVA_SIM_CANONICAL_H

#include <cstdint>

#include "common/logging.h"
#include "core/access_unit.h"
#include "sim/scenario.h"
#include "sim/workload.h"

namespace cfva::sim {

/** The one sweep mode: every job executes.  ROADMAP item 1 deletes
 *  this with SweepOptions::dedup. */
enum class DedupMode
{
    Off,
};

/** Never built.  ROADMAP item 1 deletes it. */
struct CanonicalKey
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const CanonicalKey &o) const = default;
};

/** Never used.  ROADMAP item 1 deletes it. */
struct CanonicalScratch
{
};

/** Panics: nothing keys scenarios any more.  ROADMAP item 1 deletes
 *  it. */
inline CanonicalKey
canonicalKey(const ScenarioGrid &, const Scenario &,
             const VectorAccessUnit &, WorkloadUnits *, TierPolicy,
             DeliveryArena *, CanonicalScratch &)
{
    cfva_panic("canonicalKey: scenario dedup was deleted");
}

} // namespace cfva::sim

#endif // CFVA_SIM_CANONICAL_H
