/**
 * @file
 * TheoryBackend: the analytic fast path of the tiered evaluator.
 *
 * The paper's whole argument is that conflict behaviour is
 * *analyzable* in closed form: inside a window the exact outcome of
 * an access is known without simulating a cycle (Theorems 1 and 3 —
 * latency = theory::minimumLatency(L, T), zero stalls, one delivery
 * per cycle in issue order), and outside it the conflict pattern is
 * exactly periodic, so the steady-state schedule is closed-form too.
 * This backend turns both halves into an executable tier:
 *
 *  - Conflict-free claims: for planner-certified streams
 *    (AccessPlan::expectConflictFree — the paper's window theorems)
 *    the uniform schedule is claimed directly, O(1) per access under
 *    ResultDetail::Summary; for every other stream a one-pass O(L)
 *    proof over per-module next-free times is tried first, and it
 *    stops at the first request that would queue.  Either way the
 *    exact AccessResult the simulation engines would produce is
 *    synthesized from the timing contract (request issued at cycle i
 *    arrives at i+1, starts service immediately, retires and crosses
 *    the return bus at i+1+T).
 *  - Conflicted claims: theory/conflict_solver.h establishes the
 *    O(period) transient on the event stepper, jumps over the
 *    periodic steady state, and memoizes the proof per
 *    rank-canonicalized module sequence — the per-worker
 *    BackendCache keeps this backend (and the memo) alive across a
 *    sweep, so repeated workload accesses stop re-proving the same
 *    claim.
 *  - Multi-port claims: when the P > 1 port streams are provably
 *    disjoint across modules, the ports never interact and the
 *    MultiPortResult is synthesized from P independent single-port
 *    answers.
 *
 * What no claim covers is stepped, always on the event-driven
 * engines whatever VectorUnitConfig::engine says (that knob selects
 * the reference engine of the simulation tier only): a single-port
 * stream the solver declines is answered by the very stepper pass
 * that looked for its recurrence — one memo lookup and one pass, the
 * pass stepping on to the end of the stream when no state recurs —
 * and ports that share modules are stepped together in one P-port
 * pass of the same stepper, over the premap the multi-port claim
 * already made, summary-only when the caller wants aggregates.
 * Claimed answers are bit-identical to simulation by construction
 * (tests/test_theory_backend.cc and tests/test_conflict_solver.cc
 * audit this across randomized grids; TierPolicy::AuditBoth audits
 * it against the per-cycle oracle on every sweep scenario it runs).
 * Every fallback is attributed a FallbackReason; claim/fallback
 * attribution is a deterministic function of (config, mapping,
 * planned streams) — never of memo state — which is what keeps the
 * attribution columns sound under scenario dedup.
 *
 * The window classification itself (mapping kind + stride family
 * against matchedWindow / sectionedWindows / ...) lives in the
 * planner: VectorAccessUnit::plan sets AccessPlan::expectConflictFree
 * from exactly those windows.  execute() dispatches on it: certified
 * streams take runSingleCertified (theorem-backed O(1) claim),
 * everything else runSingleHinted (proof, then solver, then the
 * stepped answer).
 */

#ifndef CFVA_THEORY_THEORY_BACKEND_H
#define CFVA_THEORY_THEORY_BACKEND_H

#include <cstdint>
#include <vector>

#include "memsys/backend.h"
#include "theory/conflict_solver.h"

namespace cfva {

/**
 * MemoryBackend that answers provably conflict-free, periodic
 * conflicted, and module-disjoint multi-port streams analytically
 * and steps everything else on the event-driven engines.  Like the
 * engines, it is reusable across run() calls and cacheable per
 * (config, mapping); the mapping must outlive the backend.
 */
class TheoryBackend final : public MemoryBackend
{
  public:
    /**
     * @param cfg   memory shape the claims are proved against
     * @param map   address mapping (must outlive the backend)
     * @param path  stream premap strategy (see makeMemoryBackend)
     */
    TheoryBackend(const MemConfig &cfg, const ModuleMapping &map,
                  MapPath path = MapPath::BitSliced);

    MultiPortResult
    run(const std::vector<std::vector<Request>> &streams,
        DeliveryArena *arena = nullptr) override;

    AccessResult
    runSingle(const std::vector<Request> &stream,
              DeliveryArena *arena = nullptr) override;

    const char *name() const override { return "theory"; }

    /**
     * runSingle with the planner's window classification: the O(L)
     * conflict-free proof is attempted, then the steady-state
     * solver, and a stream neither claims is answered by the
     * solver's own stepper pass.  @p expectConflictFree only names
     * such a fallback: Unproven when the planner expected conflict
     * freedom, Conflicted when its windows said the stream
     * conflicts.  The plain runSingle() passes true.  @p detail
     * selects how much of the result is materialized; a stepped
     * answer follows the same rule as a solver claim (deliveries
     * unless the detail is Summary).
     */
    AccessResult
    runSingleHinted(bool expectConflictFree,
                    const std::vector<Request> &stream,
                    DeliveryArena *arena = nullptr,
                    ResultDetail detail = ResultDetail::Full);

    /**
     * runSingle for a stream the planner CERTIFIED conflict free
     * (AccessPlan::expectConflictFree): the paper's theorems — not a
     * per-access replay — are the proof, so the uniform schedule
     * (element i issues at cycle i, delivers at i+1+T) is claimed
     * directly.  Under ResultDetail::Summary that is O(1) per
     * access: no premap, no proof walk, no delivery synthesis.  The
     * certification chain stays honest three ways: the windows
     * behind expectConflictFree are property-tested against the
     * stepped oracle (tests/test_conflict_solver.cc certified-plan
     * suite), --tier audit re-simulates every claimed scenario on
     * demand, and the plain hinted/proof path remains available to
     * any caller that wants the per-access verification.
     */
    AccessResult
    runSingleCertified(const std::vector<Request> &stream,
                       DeliveryArena *arena = nullptr,
                       ResultDetail detail = ResultDetail::Full);

    /** run() with a claimed-result detail knob (the virtual run()
     *  is runPorts with ResultDetail::Full). */
    MultiPortResult
    runPorts(const std::vector<std::vector<Request>> &streams,
             DeliveryArena *arena, ResultDetail detail);

    /** True iff the most recent run()/runSingle() was answered
     *  analytically. */
    bool lastClaimed() const { return lastClaimed_; }

    /** Why the most recent run()/runSingle() fell back (None after
     *  a claim). */
    FallbackReason lastReason() const { return lastReason_; }

    /** Cumulative claim/fallback counts over this instance. */
    const TierCounters &stats() const { return stats_; }

    /** Memo, collapse, and stepped-cycle attribution of the solver's
     *  passes — every single-port stream this tier did not claim
     *  outright went through exactly one of them, and every
     *  module-sharing multi-port access through one P-port pass. */
    FastPathStats
    fastPathStats() const override
    {
        return solver_.stats();
    }

  private:
    /** Premaps @p stream into @p mods (bit-sliced for linear
     *  mappings). */
    void premap(const std::vector<Request> &stream,
                std::vector<ModuleId> &mods);

    /** Records the attribution of the access just answered. */
    void note(bool claimed, FallbackReason reason);

    /**
     * The O(L) conflict-free claim proof + synthesis over an
     * already premapped stream: walks @p mods tracking each
     * module's next-free cycle; if every request finds its module
     * free on arrival the conflict-free schedule is exact and
     * @p out is filled with the synthesized result (aggregates only
     * when @p materialize is false).  An empty stream is claimed
     * vacuously.  Returns false (leaving @p out untouched) when any
     * request would queue.
     */
    bool tryClaim(const std::vector<Request> &stream,
                  const ModuleId *mods, DeliveryArena *arena,
                  AccessResult &out, bool materialize);

    /** Fills @p out with the uniform conflict-free schedule's
     *  scalar aggregates for a length-@p length stream — the O(1)
     *  half of tryClaim's synthesis. */
    void summarizeUniform(std::size_t length, AccessResult &out);

    /** Materializes the uniform conflict-free schedule's delivery
     *  records on top of summarizeUniform(). */
    void synthesizeUniform(const std::vector<Request> &stream,
                           const ModuleId *mods,
                           DeliveryArena *arena, AccessResult &out);

    /**
     * The multi-port claim over the ports premapped into portMods_:
     * proves pairwise module-disjointness, and — since disjoint
     * ports never interact — synthesizes the MultiPortResult from P
     * independent single-port answers (port ids patched, makespan
     * assembled as the stepper assembles it).  False when any two
     * ports share a module or any port defeats both the proof and
     * the solver.
     */
    bool tryClaimPorts(
        const std::vector<std::vector<Request>> &streams,
        DeliveryArena *arena, MultiPortResult &out,
        ResultDetail detail);

    MemConfig cfg_;
    BitSlicedMapper slicer_;
    ConflictSolver solver_;

    std::vector<Cycle> nextFree_; // per-module scratch
    std::vector<ModuleId> mods_;  // premap scratch, reused per run
    std::vector<std::vector<ModuleId>> portMods_; // P > 1 premaps
    TierCounters stats_;
    bool lastClaimed_ = false;
    FallbackReason lastReason_ = FallbackReason::None;
};

} // namespace cfva

#endif // CFVA_THEORY_THEORY_BACKEND_H
