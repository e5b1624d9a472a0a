/**
 * @file
 * ConflictSolver: the analytic steady-state tier for conflicted and
 * multi-port streams.
 *
 * The paper's argument (Theorems 1 and 3) is that constant-stride
 * conflict behaviour is analyzable, not merely simulable.  The
 * steady-state collapse (memsys/steady_state.h) proved the stronger
 * operational fact the solver rests on: a conflicted constant-stride
 * access is exactly periodic — once the machine state (buffer
 * occupancy and in-flight timestamps, taken relative to the current
 * cycle and issue position) recurs at two issue positions one
 * module-sequence period apart, every Delivery timestamp and the
 * stall count of the remaining repetitions are affine extrapolations
 * of the captured segment.  The module-visit multiset over one stride
 * period plus the buffer depths therefore determines the whole
 * steady-state issue schedule; only the O(period) transient has to
 * be established at all.
 *
 * This class packages that closed form as a *claiming* tier rather
 * than a simulation accelerator:
 *
 *  - solve() answers a single premapped stream without stepping it
 *    to the end: memo replay when the rank-canonicalized module
 *    sequence was solved before, otherwise one event-stepper pass
 *    that establishes the O(period) transient and jumps over the
 *    rest, abandoned as soon as no recurrence is possible.
 *    Success/failure is a deterministic function of (config, module
 *    sequence, length) — memo state only changes the speed, never
 *    the answer or the claim attribution, which is what keeps the
 *    claimed/fallback columns identical at any thread count, grain
 *    and shard.
 *  - solveOrStep() is solve() for a caller that needs the answer
 *    either way: the same memo lookup and the same pass, but a pass
 *    that finds no recurrence steps on from where it is to the end of
 *    the stream.  The claim decision is solve()'s, and a declined
 *    stream costs that one pass.
 *  - beginPortCheck()/portDisjoint() implement the multi-port
 *    extension: when per-port streams are provably disjoint across
 *    modules, the ports never interact — each port's trace is
 *    bit-identical to its single-port trace — so a P > 1 access
 *    decomposes into P independent single-port answers
 *    (theory/theory_backend.cc synthesizes the MultiPortResult).
 *    stepPorts() answers the ports that share modules with one
 *    P-port pass of the same stepper.
 *
 * Bit-identity with the stepped oracle (memsys/memory_system.h) is
 * by construction: the transient is established by the event
 * stepper (memsys/event_driven.h), which is held to the oracle under
 * differential test, and the extrapolation is its recurrence jump.
 * --tier audit cross-checks every claimed answer against the oracle
 * end to end.
 */

#ifndef CFVA_THEORY_CONFLICT_SOLVER_H
#define CFVA_THEORY_CONFLICT_SOLVER_H

#include <cstdint>
#include <vector>

#include "memsys/event_driven.h"
#include "memsys/steady_state.h"

namespace cfva {

struct MemConfig;
class DeliveryArena;

/**
 * Memoized analytic solver for periodic (conflicted) streams and
 * the disjointness side of multi-port claims.  Holds only scratch
 * and the proof memo, so one instance per TheoryBackend serves
 * every access; the per-worker BackendCache keeps the backend — and
 * with it this memo — alive across a whole sweep, which is what
 * stops retune/stencil workloads re-proving the same claim per
 * access.  Not thread-safe (per-worker, like all backend scratch).
 */
class ConflictSolver
{
  public:
    /**
     * Attempts to answer @p stream (premapped to @p mods) on
     * @p cfg without simulating: memo replay, else steady-state
     * solve + memo insert.  On success fills @p result —
     * bit-identical to the stepped oracle — and returns
     * true; on failure returns false with @p result untouched (its
     * delivery buffer, if one was acquired, is released back to
     * @p arena).  When @p materialize is false only the scalar
     * aggregates are written and result.deliveries stays empty —
     * the claim decision and every aggregate are identical either
     * way.
     */
    bool solve(const MemConfig &cfg,
               const std::vector<Request> &stream,
               const ModuleId *mods, DeliveryArena *arena,
               AccessResult &result, bool materialize = true);

    /**
     * solve() that always answers: the same single memo lookup and
     * the same claim decision, but when the stepper pass finds no
     * recurrence it steps on to the end of the stream, and @p result
     * holds that stepped answer.  Returns true iff the answer is a
     * claim (memo hit or recurrence jump).  A delivery buffer is
     * acquired from @p arena only when @p materialize is set.
     */
    bool solveOrStep(const MemConfig &cfg,
                     const std::vector<Request> &stream,
                     const ModuleId *mods, DeliveryArena *arena,
                     AccessResult &result, bool materialize);

    /**
     * Steps a P > 1 access whose ports share modules (stream p
     * premapped to mods[p]) in one P-port pass of the solver's
     * stepper, materializing deliveries only when @p materialize is
     * set (see EventStepper::runPorts).  Nothing is claimed or
     * memoized: the ports' interleaving on the shared modules is not
     * periodic in any one port's module sequence.  The pass's
     * makespan counts as stepped cycles.
     */
    MultiPortResult
    stepPorts(const MemConfig &cfg,
              const std::vector<std::vector<Request>> &streams,
              const std::vector<std::vector<ModuleId>> &mods,
              DeliveryArena *arena, bool materialize);

    /** Starts a fresh port-disjointness epoch over @p moduleCount
     *  modules. */
    void beginPortCheck(ModuleId moduleCount);

    /**
     * Marks the modules of one port's premapped sequence inside the
     * current epoch.  Returns true iff no module was already owned
     * by a previous port of this epoch — i.e. the port is disjoint
     * from every port checked since beginPortCheck().
     */
    bool portDisjoint(std::size_t length, const ModuleId *mods,
                      unsigned port);

    /** Memo/collapse attribution of this solver's passes. */
    const FastPathStats &stats() const { return stats_; }

  private:
    EventStepper stepper_;
    OutcomeMemo memo_;
    FastPathStats stats_;

    /** Epoch-stamped module ownership for the port check: owner_
     *  is meaningful only where ownerEpoch_ matches epoch_, so a
     *  new check is O(1) instead of O(modules). */
    std::vector<unsigned> owner_;
    std::vector<std::uint32_t> ownerEpoch_;
    std::uint32_t epoch_ = 0;
};

} // namespace cfva

#endif // CFVA_THEORY_CONFLICT_SOLVER_H
