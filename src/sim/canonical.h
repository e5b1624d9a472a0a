/**
 * @file
 * Grid-level scenario canonicalization: one stable key per expanded
 * job, built from exactly the fields that determine its outcome.
 *
 * The access-level fast paths (steady-state collapse, OutcomeMemo)
 * prove that the engines' timing decisions depend only on the
 * *rank-canonicalized* module sequence of the planned stream — every
 * tie-break compares module numbers, and an order-preserving
 * relabeling preserves every comparison (memsys/steady_state.h).
 * A CanonicalKey lifts that argument from one access to a whole
 * scenario: it encodes the mapping shape (describe(), which already
 * excludes the engine on purpose), the evaluation tier, the workload
 * program, the stride-family/length/port geometry, the per-port
 * effective mix multipliers, and — per access the workload will
 * execute, with
 * the same variant units the execution path uses — the plan policy
 * plus the jointly rank-canonicalized per-port module sequences of
 * the POST-plan streams.  Two scenarios with equal keys drive the
 * engines through identical decisions, so one execution's
 * ScenarioOutcome replays to the other with only the identity
 * columns rewritten (SweepEngine::replayOutcome).
 *
 * Deliberately excluded, because the differential harnesses prove
 * them outcome-invariant: the engine (per-cycle vs event), the map
 * path (bit-sliced vs scalar), the collapse mode, and the run shape
 * (threads/grain/shard).  Base addresses are not in the key either —
 * a shifted base that yields order-isomorphic module sequences lands
 * in the same class, exactly the OutcomeMemo soundness argument.
 *
 * The key keeps the full encoded word sequence next to its digest:
 * classing compares the words, so hash collisions cannot merge
 * classes.
 */

#ifndef CFVA_SIM_CANONICAL_H
#define CFVA_SIM_CANONICAL_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/access_unit.h"
#include "sim/scenario.h"
#include "sim/workload.h"

namespace cfva::sim {

/**
 * Whether SweepEngine::runToSink groups jobs by CanonicalKey and
 * executes one representative per class.  Off is the default; On is
 * byte-identical to Off by construction — the replayed outcomes flow
 * through the same ordered flush and sinks; Audit executes every
 * member anyway and compares it field for field against the replay
 * (SweepRunStats counts divergences).
 */
enum class DedupMode
{
    Off,
    On,
    Audit,
};

const char *to_string(DedupMode mode);

/** One scenario's outcome-equivalence key. */
struct CanonicalKey
{
    /** Block digests of the word encoding (one FNV-style pass, two
     *  independent base/multiplier lanes), the cheap first-stage
     *  comparison. */
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    /** The full canonical encoding; equality is judged on this, so
     *  a digest collision can never merge two distinct classes. */
    std::vector<std::uint32_t> words;

    /** 32-hex-digit name of this key (hi then lo). */
    std::string digest() const;

    bool operator==(const CanonicalKey &o) const = default;
};

/** Port @p p's signed stride under @p mix, overflow-checked.
 *  Shared by the sweep execution path and the canonicalizer so keys
 *  describe exactly the streams the engine runs. */
std::int64_t mixedStride(std::uint64_t baseStride, const PortMix &mix,
                         unsigned p);

/**
 * Plans port @p p's stream of one workload access: stride scaled by
 * the mix, base address staggered per port, descending accesses
 * anchored at the top of their block so no address underflows.
 * @p a1 and @p baseStride are the access's own values — workloads
 * shift/scale them between accesses of a sequence.  With @p arena
 * the stream buffer is drawn from the worker's request pool; the
 * caller releases it back after use.  Shared by the sweep execution
 * path and the canonicalizer (same rationale as mixedStride).
 */
AccessPlan planPortStream(const ScenarioGrid &grid,
                          const Scenario &sc,
                          const VectorAccessUnit &unit, unsigned p,
                          Addr a1, std::uint64_t baseStride,
                          DeliveryArena *arena);

/**
 * Reusable scratch for canonicalKey(): premap buffers, the
 * rank-assignment tables, and the word vector under construction.
 * One instance per thread, like the engine's other worker scratch;
 * not thread-safe.
 */
struct CanonicalScratch
{
    std::vector<std::uint32_t> words;
    std::vector<std::vector<ModuleId>> portMods;
    std::vector<std::uint32_t> portPolicy;
    std::vector<ModuleId> used;

    /** Epoch-stamped rank table: rankOf[m] is meaningful only when
     *  rankEpoch[m] == epoch, so starting a new access is O(1)
     *  instead of an O(modules) reset. */
    std::vector<ModuleId> rankOf;
    std::vector<std::uint32_t> rankEpoch;
    std::uint32_t epoch = 0;

    /** Per-mapping describe() memo for the grid being keyed — the
     *  header string is a pure function of the mapping axis, and
     *  rebuilding it per job costs more than the rest of the
     *  header.  A scratch serves one grid at a time; keying a
     *  different grid resets the memo. */
    const ScenarioGrid *describeGrid = nullptr;
    std::vector<std::string> mappingDescribe;
};

/**
 * Computes the canonical key of @p sc as expanded from @p grid.
 * @p unit must be the access unit of the scenario's mapping
 * configuration (any engine — the key ignores it), @p workloads the
 * caller's variant-unit scratch for Retune programs (nullptr builds
 * ephemeral variants, exactly like runScenario), @p tier the
 * evaluation tier the run will use (it changes the report's
 * attribution columns, so it is part of outcome identity), and
 * @p arena an optional request-buffer recycler for the planning
 * pass.
 */
CanonicalKey canonicalKey(const ScenarioGrid &grid,
                          const Scenario &sc,
                          const VectorAccessUnit &unit,
                          WorkloadUnits *workloads, TierPolicy tier,
                          DeliveryArena *arena,
                          CanonicalScratch &scratch);

} // namespace cfva::sim

#endif // CFVA_SIM_CANONICAL_H
