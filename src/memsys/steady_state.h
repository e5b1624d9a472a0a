/**
 * @file
 * Periodic steady-state collapse and base-invariant outcome
 * memoization for the evaluator's single-port stepper.
 *
 * The paper's whole analysis rests on constant-stride conflict
 * patterns being *periodic* (Theorems 1 and 3 compute the period in
 * closed form).  Two fast paths exploit the periodicity while
 * staying bit-identical to the stepped oracle:
 *
 * - Steady-state collapse, taken inside the event-driven stepper's
 *   own loop (memsys/event_driven.h, EventStepper): the stepper
 *   snapshots the machine state at issue positions one module-
 *   sequence period apart, and once the state recurs it closes the
 *   form — every Delivery timestamp and the stall count of the
 *   remaining floor((L-prefix)/period) repetitions are affine
 *   extrapolations of the captured segment, and stepping resumes
 *   for the tail.  A recurrence of the *relative* state (buffer
 *   occupancy and in-flight timestamps as offsets from the current
 *   cycle and issue position) is exact, so the extrapolated trace
 *   equals the stepped trace cycle for cycle.  This is the
 *   transient-then-periodic structure of contention that the
 *   conflict model of Atalar et al. (arXiv:1508.03566) analyzes.
 * - OutcomeMemo: two streams whose premapped module sequences are
 *   equal up to an order-preserving relabeling drive the engine
 *   through identical timing decisions — every tie-break compares
 *   module numbers, and a strictly increasing relabeling preserves
 *   every comparison.  The memo keys the aggregates of collapsed
 *   outcomes on the rank-canonicalized module sequence, so a hit
 *   answers without a pass.  This is the sound version of
 *   "base-address invariance": a shifted base that yields an
 *   order-isomorphic module sequence hits; one that reorders modules
 *   (XOR mappings do) correctly misses.
 *
 * The theory tier's ConflictSolver::solveOrStep
 * (theory/conflict_solver.h) is the one orchestration of the two:
 * one memo lookup, then — unless it hit — one stepper pass that
 * always finishes.  It is differentially tested against the stepped
 * oracle (tests/test_collapse.cc, and `cfva_sweep --tier audit`).
 */

#ifndef CFVA_MEMSYS_STEADY_STATE_H
#define CFVA_MEMSYS_STEADY_STATE_H

#include <cstdint>
#include <deque>
#include <vector>

#include "common/bits.h"
#include "memsys/request.h"

namespace cfva {

/** Ignored everywhere; the name stays only until ROADMAP item 1
 *  drops it from the benchmark. */
enum class CollapseMode
{
    Off,
    On,
};

/** Fast-path attribution counters, mergeable across instances. */
struct FastPathStats
{
    /** Accesses answered by steady-state collapse. */
    std::uint64_t collapseHits = 0;

    /** Cycles actually stepped (prefix + tail) on collapsed
     *  accesses — the simulation work that remained after the
     *  periodic middle was extrapolated. */
    std::uint64_t collapsePrefixCycles = 0;

    /** Accesses replayed from the outcome memo. */
    std::uint64_t memoHits = 0;

    /** Memo lookups that missed (a stepper pass then ran). */
    std::uint64_t memoMisses = 0;

    /** Cycles stepped by passes that did not jump: a one-stream
     *  pass steps its stream to the end and adds its last delivery
     *  cycle + 1, and a P-port pass adds its makespan. */
    std::uint64_t steppedCycles = 0;

    FastPathStats &
    operator+=(const FastPathStats &o)
    {
        collapseHits += o.collapseHits;
        collapsePrefixCycles += o.collapsePrefixCycles;
        memoHits += o.memoHits;
        memoMisses += o.memoMisses;
        steppedCycles += o.steppedCycles;
        return *this;
    }

    bool operator==(const FastPathStats &o) const = default;
};

/**
 * One delivered element in stream-position form: the timing the
 * engine decided, with the element named by its issue position
 * instead of its address.  Only the event stepper's recording pass
 * writes them, and that pass is a test hook (memsys/event_driven.h).
 */
struct Emit
{
    std::uint32_t pos = 0; //!< index into the request stream
    Cycle issued = 0;
    Cycle arrived = 0;
    Cycle serviceStart = 0;
    Cycle ready = 0;
    Cycle delivered = 0;

    bool operator==(const Emit &o) const = default;
};

/** Scalar aggregates of a position-form outcome. */
struct EmitSummary
{
    Cycle firstIssue = 0;
    Cycle lastDelivery = 0;
    std::uint64_t stallCycles = 0;
    Cycle latency = 0;
    bool conflictFree = false;

    bool operator==(const EmitSummary &o) const = default;
};

/**
 * Fills @p result from the position-form trace of a stepper pass
 * and the concrete stream it answers: addresses, element indices,
 * and module numbers come from (@p stream, @p mods) at the traced
 * positions, every timing field from the trace, and each record is
 * tagged with @p port.  It serves only the stepper's recording
 * pass, so the tests can compare a pass with the oracle record by
 * record; the evaluator itself writes no Delivery.
 * result.deliveries must be empty (capacity may be reserved).
 */
void materializeEmits(const EmitSummary &summary,
                      const std::vector<Emit> &emits,
                      const std::vector<Request> &stream,
                      const ModuleId *mods, unsigned port,
                      AccessResult &result);

/** Copies only the scalar aggregates of a position-form outcome
 *  into @p result, leaving result.deliveries untouched — the
 *  summary-only half of materializeEmits(). */
void applyEmitSummary(const EmitSummary &summary,
                      AccessResult &result);

/**
 * The aggregates of one port's stepped access: @p length requests,
 * the first issued at @p firstIssue, @p stalls issue retries, the
 * last element delivered at @p lastDelivery, on a memory of service
 * time @p T.  Latency is inclusive; the access is conflict free iff
 * it never stalled and took the minimum L + T + 1 cycles.  An empty
 * stream has latency 0 and is vacuously conflict free.  Every
 * engine judges a port here, so the criterion has one definition.
 */
EmitSummary summarizePort(std::size_t length, Cycle T,
                          Cycle firstIssue, Cycle lastDelivery,
                          std::uint64_t stalls);

/**
 * Bounded cache of the aggregates of collapsed outcomes keyed on the
 * rank-canonicalized module sequence (distinct modules used, sorted
 * ascending, rewritten as ranks 0..k-1).  Not thread-safe; each
 * ConflictSolver holds one, exactly like its other scratch.
 */
class OutcomeMemo
{
  public:
    /** Longest stream worth caching (bounds per-entry memory). */
    static constexpr std::size_t kMaxLen = 4096;

    /** Entries retained; the oldest is evicted beyond this. */
    static constexpr std::size_t kMaxEntries = 256;

    /**
     * Canonicalizes (@p length, @p mods) over @p moduleCount
     * modules and looks the rank sequence up.  On a hit returns
     * true with cachedSummary() readable; on a miss the canonical
     * form is kept so an immediately following store() of the same
     * stream reuses it.
     */
    bool lookup(std::size_t length, const ModuleId *mods,
                ModuleId moduleCount);

    /**
     * Inserts the aggregates of the stream most recently passed to
     * lookup() (which must have missed).  Oversize streams are
     * ignored; the oldest entry is evicted at capacity.
     */
    void store(std::size_t length, const EmitSummary &summary);

    /** Aggregates of the last lookup() hit. */
    const EmitSummary &cachedSummary() const;

  private:
    struct Entry
    {
        std::uint64_t hash = 0;
        std::vector<ModuleId> rankSeq;
        EmitSummary summary;
    };

    static constexpr ModuleId kUnranked = ~ModuleId{0};

    std::vector<ModuleId> rankSeq_; //!< canonical form of last lookup
    std::uint64_t hash_ = 0;
    std::size_t found_ = ~std::size_t{0};
    std::vector<ModuleId> rankOf_;  //!< module id -> rank scratch
    std::deque<Entry> entries_;     //!< FIFO eviction order
};

} // namespace cfva

#endif // CFVA_MEMSYS_STEADY_STATE_H
