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
 *  - solveOrStep() answers a single premapped stream: the memo's
 *    aggregates when the rank-canonicalized module sequence was
 *    solved before, otherwise one event-stepper pass that
 *    establishes the O(period) transient and jumps over the rest.
 *    A pass that finds no recurrence steps on from where it is to
 *    the end of the stream, so a declined stream costs that one
 *    pass and its answer is the stepped one.  The claim decision
 *    (memo hit or jump) is a deterministic function of (config,
 *    module sequence, length) — memo state only changes the speed,
 *    never the answer or the claim attribution, which is what keeps
 *    the claimed/fallback columns identical at any thread count and
 *    shard.
 *  - beginPortCheck()/portDisjoint() implement the multi-port
 *    extension: when per-port streams are provably disjoint across
 *    modules, the ports never interact — each port's trace is
 *    bit-identical to its single-port trace — so a P > 1 access
 *    decomposes into P independent single-port answers
 *    (theory/theory_backend.cc assembles the MultiPortResult).
 *    stepPorts() answers the ports that share modules with one pass
 *    of the same stepper: EventStepper::runPorts sets up the loop
 *    that run() sets up for solveOrStep(), with P ports and no
 *    snapshots.
 *
 * Every answer is aggregates only; no pass here records a Delivery.
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
     * Answers @p stream (premapped to @p mods) on @p cfg with one
     * memo lookup (streams up to OutcomeMemo::kMaxLen; longer ones
     * make none) and, on a miss, one stepper pass: the aggregates of
     * a pass that jumps are stored in the memo, and a pass that
     * finds no recurrence steps on to the end of the stream.  A hit
     * answers from the stored aggregates.  @p result receives the
     * stepped oracle's aggregates either way; result.deliveries is
     * left untouched.  Returns true iff the answer is a claim (memo
     * hit or jump).
     */
    bool solveOrStep(const MemConfig &cfg,
                     const std::vector<Request> &stream,
                     const ModuleId *mods, AccessResult &result);

    /**
     * solveOrStep() for a caller that wants only claims: returns
     * the same claim decision, and when the pass did not jump resets
     * @p result to an empty AccessResult.  The arena and the flag
     * are ignored.  Only the benchmark's solve probe calls it
     * (ROADMAP item 2).
     */
    bool solve(const MemConfig &cfg,
               const std::vector<Request> &stream,
               const ModuleId *mods, DeliveryArena *,
               AccessResult &result, bool = true);

    /**
     * Steps a P > 1 access whose ports share modules (stream p
     * premapped to mods[p]) in one pass of the solver's stepper set
     * up for P ports (EventStepper::runPorts), for each port's
     * aggregates and the makespan.  Nothing is claimed or memoized:
     * the ports' interleaving on the shared modules is not periodic
     * in any one port's module sequence.  The pass's makespan counts
     * as stepped cycles.
     */
    MultiPortResult
    stepPorts(const MemConfig &cfg,
              const std::vector<std::vector<Request>> &streams,
              const std::vector<std::vector<ModuleId>> &mods);

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
