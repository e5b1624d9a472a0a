/**
 * @file
 * The event stepper: the one fast stepped model, for one port or
 * many.
 *
 * Simulates exactly the model of memsys/memory_system.h — same
 * modules, same buffers, same per-cycle step order (retire, return
 * buses, service start, processor issue) — but advances simulated
 * time directly to the next instant at which any state can change
 * instead of ticking every cycle.  Between events the only activity
 * is the processors retrying stalled issues against unchanged input
 * buffers, which the stepper accounts for in one subtraction.
 *
 * EventStepper is one cycle loop over premapped module sequences;
 * run() (one port) and runPorts() (P ports) only set it up and read
 * its answer.  Three properties every caller relies on:
 *
 * - Compact per-element state: an element in flight is its stream
 *   position, its port, and the two timestamps the model reads
 *   (issue and service start; arrival and ready follow from the
 *   1-cycle bus and the T-cycle service).
 * - Aggregates by default: a pass returns each port's aggregates
 *   and no O(L) buffer.  Recording is a test hook: a pass run with
 *   materialize set records each delivery as a position-form Emit
 *   per port, and materializeEmits() (memsys/steady_state.h) writes
 *   the Delivery records after the pass, so the tests can hold the
 *   jump's extrapolated schedule to the oracle record by record.
 *   No library path records.
 * - A jump inside the loop (one port): the stepper snapshots the
 *   relative machine state at issue positions one module-sequence
 *   period apart and, once a snapshot recurs, takes the affine jump
 *   over the remaining whole periods (memsys/steady_state.h).  A
 *   stream that never recurs keeps stepping from where it is, so
 *   every stream costs one pass that always finishes.  A P-port
 *   pass takes no jump.
 *
 * The P ports of a pass share the modules; each has its own return
 * bus (one output heap per port, arbitrated in port order each
 * cycle), and each cycle the ports issue least-issued first.  One
 * port is the P = 1 case of the same loop.
 *
 * The stepper runs only inside the evaluator: ConflictSolver
 * (theory/conflict_solver.h) drives both set-ups for TheoryBackend,
 * always for aggregates.  Its results are bit-identical to the
 * oracle on every stream: identical stall counts and aggregates,
 * and, from a recording pass, identical delivery records (all five
 * timestamps and the port tag).
 * tests/test_engine_differential.cc, tests/test_collapse.cc and
 * tests/test_multi_port_differential.cc hold it to that contract.
 *
 * Why it is faster: the per-cycle loop scans all M modules two to
 * three times per cycle (once per port for the return buses).  This
 * stepper touches only the modules named by an event (O(log M) heap
 * work each), and skips the dead cycles entirely — on heavily
 * conflicting streams, where the per-cycle model burns ~L*T
 * iterations, the event count stays O(L).
 */

#ifndef CFVA_MEMSYS_EVENT_DRIVEN_H
#define CFVA_MEMSYS_EVENT_DRIVEN_H

#include <cstdint>
#include <vector>

#include "memsys/event_queue.h"
#include "memsys/request.h"
#include "memsys/steady_state.h"

namespace cfva {

/**
 * The event-driven stepper over premapped module sequences, for one
 * port or P.  Holds only scratch state, reconfigured in place when a
 * pass names a different memory shape or port count, so one instance
 * serves every access of every shape.  Not thread-safe.
 */
class EventStepper
{
  public:
    /** Periods above this are not worth snapshotting. */
    static constexpr std::size_t kMaxPeriod = 2048;

    /** Distinct state snapshots kept before recurrence detection
     *  gives up. */
    static constexpr std::size_t kMaxSnapshots = 64;

    /**
     * Steps an access of @p stream, premapped to @p mods, on the
     * shape @p cfg, issuing one request per cycle from cycle 0.
     *
     * The pass snapshots at every multiple of the module sequence's
     * smallest period (when that period is at most kMaxPeriod and
     * fits twice) and takes the affine jump on the first match; a
     * pass with no possible match steps on to the end, so every
     * pass answers.
     *
     * @p result receives the scalar aggregates and, when
     * @p materialize is set (the tests' recording hook), every
     * Delivery in delivery order, written from the pass's trace
     * afterwards (result.deliveries must be empty; capacity may be
     * reserved).  Only a materializing pass records a trace.
     *
     * @return true iff the pass jumped (a snapshot recurred)
     */
    bool run(const MemConfig &cfg, const std::vector<Request> &stream,
             const ModuleId *mods, bool materialize,
             AccessResult &result);

    /**
     * Steps the P = streams.size() streams of a simultaneous
     * access, stream p premapped to mods[p], on the shape @p cfg:
     * every port issues one request per cycle from cycle 0, least
     * issued port first, into the shared modules, and each port's
     * return bus delivers at most one of its own elements per cycle.
     *
     * Returns each port's aggregates and the makespan.  Only when
     * @p materialize is set (the tests' recording hook) are the
     * port-tagged Delivery records written, in each port's delivery
     * order; otherwise no buffer is allocated at all.  It is the
     * loop of run() with P ports and no snapshots.
     */
    MultiPortResult
    runPorts(const MemConfig &cfg,
             const std::vector<std::vector<Request>> &streams,
             const std::vector<std::vector<ModuleId>> &mods,
             bool materialize);

    /** Cycles the last pass stepped: all of them up to the last
     *  delivery (the makespan, for a P-port pass), minus the span a
     *  jump covered. */
    Cycle steppedCycles() const { return stepped_; }

    /** Scalar aggregates of the last pass that finished. */
    const EmitSummary &summary() const { return summary_; }

  private:
    /** One element in flight, in absolute position/cycle terms. */
    struct Flight
    {
        std::uint32_t pos = 0;  //!< position in its port's stream
        std::uint32_t port = 0; //!< issuing port
        Cycle issued = 0;       //!< arrival is issued + 1
        Cycle serviceStart = 0; //!< ready is serviceStart + T;
                                //!< meaningful once in service
    };

    /** One port of a pass: its stream and its aggregates. */
    struct Port
    {
        const ModuleId *mods = nullptr;
        std::size_t length = 0;
        std::size_t next = 0; //!< next request (= requests issued)
        Cycle firstIssue = 0;
        Cycle lastDelivery = 0;
        std::uint64_t stalls = 0;
    };

    /** One module: ring heads/counts over the shared storage. */
    struct Module
    {
        unsigned inHead = 0, inCount = 0;
        unsigned outHead = 0, outCount = 0;
        bool busy = false;
        bool retireBlocked = false; //!< finished, output buffer full
        Flight svc{};
    };

    /** Relative-state snapshot at an issue-position multiple of
     *  the module-sequence period. */
    struct Snapshot
    {
        std::uint64_t hash = 0;
        std::vector<std::int64_t> sig; //!< serialized relative state
        Cycle now = 0;
        std::size_t next = 0;
        std::size_t delivered = 0;
        std::uint64_t stalls = 0;
    };

    /**
     * The cycle loop: steps the ports in ports_ from cycle 0 until
     * every element is delivered, recording each port's Emits when
     * @p record is set.  A nonzero @p period (one port only) turns
     * on the snapshots at its multiples and the jump.  Leaves each
     * port's aggregates in ports_, sets stepped_, and returns true
     * iff the loop jumped.  Compiled once for one port
     * (@p kOnePort, which skips the per-issue reorder) and once
     * for P.
     */
    template <bool kOnePort>
    bool step(const MemConfig &cfg, std::size_t period, bool record);

    /** Sizes the module array, event heaps, issue order and trace
     *  buffers for @p cfg and ports_, and empties them. */
    void reset(const MemConfig &cfg, bool record);

    /** Starts the input-buffer head's service on idle module @p id
     *  if it has crossed the request bus. */
    void tryStart(ModuleId id, Cycle now);

    /** Restores the least-issued-first order of order_ after an
     *  issue step and drops the ports that have issued everything. */
    void reorderPorts();

    /** Smallest period p <= kMaxPeriod of mods[0..length) (every
     *  i >= p has mods[i] == mods[i-p]), or @p length when there is
     *  none.  Scratch stays O(kMaxPeriod) for any length. */
    std::size_t smallestPeriod(std::size_t length,
                               const ModuleId *mods);

    /** Serializes the live state relative to (@p now, @p next)
     *  into sig_ and returns its hash. */
    std::uint64_t encodeState(Cycle now, std::size_t next);

    /** Advances every in-flight timestamp and event by (@p tShift,
     *  @p pShift): the state after @p pShift more issues. */
    void shiftState(Cycle tShift, std::uint32_t pShift);

    Flight &inAt(ModuleId m, unsigned i)
    {
        return in_[m * q_ + (i >= q_ ? i - q_ : i)];
    }
    Flight &outAt(ModuleId m, unsigned i)
    {
        return out_[m * qOut_ + (i >= qOut_ ? i - qOut_ : i)];
    }

    ModuleId moduleCount_ = 0;
    unsigned q_ = 0, qOut_ = 0;
    Cycle t_ = 0;
    std::vector<Module> modules_;
    std::vector<Flight> in_;  //!< input rings, q_ per module
    std::vector<Flight> out_; //!< output rings, qOut_ per module

    /** Pending service completions, keyed by retire cycle. */
    ModuleEventHeap retire_{0};

    /** One heap per return bus.  A module with a nonempty output
     *  buffer is filed in the heap of its head's port, keyed by the
     *  head's ready cycle — popping a port's minimum IS its
     *  return-bus arbitration (oldest ready first, lowest module on
     *  ties). */
    std::vector<ModuleEventHeap> outputs_;

    std::vector<Port> ports_;        //!< the pass's ports
    std::vector<unsigned> order_;    //!< unfinished ports, least
                                     //!< issued (then lowest) first
    std::vector<ModuleId> arriving_; //!< modules this cycle's issues
                                     //!< reach next cycle

    std::vector<std::uint32_t> fail_; //!< KMP scratch
    std::vector<std::int64_t> sig_;   //!< snapshot-encoding scratch
    std::vector<Snapshot> snapshots_; //!< storage, reused per pass

    /** Each port's position-form trace, when the pass
     *  records. */
    std::vector<std::vector<Emit>> emits_ =
        std::vector<std::vector<Emit>>(1);
    EmitSummary summary_;
    Cycle stepped_ = 0;
};

} // namespace cfva

#endif // CFVA_MEMSYS_EVENT_DRIVEN_H
