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
 *    the uniform schedule is claimed directly, O(1) per access; for
 *    every other stream a one-pass O(L) proof over per-module
 *    next-free times is tried first, and it stops at the first
 *    request that would queue.  Either way the aggregates the
 *    stepped oracle would produce follow from the timing contract
 *    (request issued at cycle i arrives at i+1, starts service
 *    immediately, retires and crosses the return bus at i+1+T).
 *  - Conflicted claims: theory/conflict_solver.h establishes the
 *    O(period) transient on the event stepper, jumps over the
 *    periodic steady state, and memoizes the answer's aggregates
 *    per rank-canonicalized module sequence — the per-worker
 *    BackendCache keeps this backend (and the memo) alive across a
 *    sweep, so repeated workload accesses stop re-proving the same
 *    claim.
 *  - Multi-port claims: when the P > 1 port streams are provably
 *    disjoint across modules, the ports never interact, so each
 *    port is answered on its own exactly as a single-port stream
 *    and the MultiPortResult is assembled from those P answers.  The
 *    access is claimed when every port was.
 *
 * What no claim covers is stepped on the event stepper
 * (memsys/event_driven.h): a stream the solver declines — a single
 * port, or one port of a disjoint access — is answered by the very
 * stepper pass that looked for its recurrence — one memo lookup and
 * one pass, the pass stepping on to the end of the stream when no
 * state recurs — and ports that share modules are stepped together
 * in one P-port pass of the same stepper, over the premap the
 * disjointness check already made.
 *
 * Every answer is aggregates only — latency, stalls, first issue,
 * last delivery, conflict-free, and the makespan of a P-port access
 * — and carries no Delivery record: the stepped oracle
 * (memsys/memory_system.h) is the one source of those.  The
 * aggregates equal the oracle's by construction:
 * tests/test_theory_backend.cc and tests/test_conflict_solver.cc
 * audit this across randomized grids, and TierPolicy::AuditBoth
 * audits it on every sweep scenario it runs.
 * Every fallback is attributed a FallbackReason; claim/fallback
 * attribution is a deterministic function of (config, mapping,
 * planned streams) — never of memo state — which is what keeps the
 * attribution columns identical at any thread count and shard.
 *
 * The window classification itself (mapping kind + stride family
 * against matchedWindow / sectionedWindows / ...) lives in the
 * planner: VectorAccessUnit::plan sets AccessPlan::expectConflictFree
 * from exactly those windows.  execute() dispatches on it: certified
 * streams take runSingleCertified (theorem-backed O(1) claim),
 * everything else runSingle (proof, then solver, then the stepped
 * answer).
 */

#ifndef CFVA_THEORY_THEORY_BACKEND_H
#define CFVA_THEORY_THEORY_BACKEND_H

#include <cstdint>
#include <vector>

#include "mapping/mapping.h"
#include "memsys/backend.h"
#include "theory/conflict_solver.h"

namespace cfva {

/**
 * The evaluator: answers provably conflict-free, periodic
 * conflicted, and module-disjoint multi-port streams analytically
 * and steps everything else on the event stepper.  Like the oracle,
 * it is reusable across runs and cacheable per (config, mapping);
 * the mapping must outlive the backend.
 */
class TheoryBackend
{
  public:
    /**
     * @param cfg   memory shape the claims are proved against
     * @param map   address mapping (must outlive the backend)
     */
    TheoryBackend(const MemConfig &cfg, const ModuleMapping &map);

    /**
     * Answers a single stream the planner did not certify: the O(L)
     * conflict-free proof is attempted, then the steady-state
     * solver, and a stream neither claims is answered by the
     * solver's own stepper pass and falls back as Conflicted.
     * The result carries the oracle's aggregates and no deliveries.
     */
    AccessResult runSingle(const std::vector<Request> &stream);

    /**
     * runSingle for a stream the planner CERTIFIED conflict free
     * (AccessPlan::expectConflictFree): the paper's theorems — not a
     * per-access replay — are the proof, so the uniform schedule
     * (element i issues at cycle i, delivers at i+1+T) is claimed
     * directly, O(1) per access: no premap and no proof walk.  The
     * certification chain stays honest three ways: the windows
     * behind expectConflictFree are property-tested against the
     * stepped oracle (tests/test_conflict_solver.cc certified-plan
     * suite), --tier audit re-simulates every claimed scenario on
     * demand, and runSingle()'s proof path remains available to
     * any caller that wants the per-access verification.
     */
    AccessResult
    runSingleCertified(const std::vector<Request> &stream);

    /**
     * Answers @p streams issued simultaneously, one request per port
     * per cycle (P = streams.size() >= 1), as the oracle's run()
     * would.  One stream is runSingle()'s answer lifted to P = 1.
     * Module-disjoint ports are each answered like runSingle()'s
     * stream, and the access is claimed iff every port was;
     * otherwise it falls back as MultiPort.  Ports that share
     * modules are stepped together in one P-port pass.  Each port
     * carries aggregates only, as in runSingle().
     */
    MultiPortResult
    runPorts(const std::vector<std::vector<Request>> &streams);

    /** True iff the most recent access was answered
     *  analytically. */
    bool lastClaimed() const { return lastClaimed_; }

    /** Why the most recent access fell back (None after a
     *  claim). */
    FallbackReason lastReason() const { return lastReason_; }

    /** Cumulative claim/fallback counts over this instance. */
    const TierCounters &stats() const { return stats_; }

    /** Memo, collapse, and stepped-cycle attribution of the solver's
     *  passes — every stream this tier did not claim outright, one
     *  port of a disjoint access included, went through exactly one
     *  of them, and every module-sharing multi-port access through
     *  one P-port pass. */
    const FastPathStats &fastPathStats() const { return solver_.stats(); }

  private:
    /** Premaps @p stream into @p mods through the mapping's
     *  moduleOf(). */
    void premap(const std::vector<Request> &stream,
                std::vector<ModuleId> &mods);

    /** Records the attribution of the access just answered: a
     *  claim iff @p reason is None. */
    void note(FallbackReason reason);

    /**
     * The O(L) conflict-free claim proof over a @p length-element
     * stream premapped to @p mods: walks @p mods tracking each
     * module's next-free cycle; if every request finds its module
     * free on arrival the conflict-free schedule is exact and
     * @p out receives its aggregates.  An empty stream is claimed
     * vacuously.  Returns false (leaving @p out untouched) when any
     * request would queue.
     */
    bool tryClaim(std::size_t length, const ModuleId *mods,
                  AccessResult &out);

    /** The proof, then the solver's pass, over @p stream premapped
     *  to @p mods; true iff the answer in @p out is a claim. */
    bool answer(const std::vector<Request> &stream,
                const ModuleId *mods, AccessResult &out);

    MemConfig cfg_;
    const ModuleMapping *map_;
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
