/**
 * @file
 * Event-driven engine: the one fast stepper, for one port or many.
 *
 * Simulates exactly the model of memsys/memory_system.h — same
 * modules, same buffers, same per-cycle step order (retire, return
 * bus, service start, processor issue) — but advances simulated
 * time directly to the next instant at which any state can change
 * instead of ticking every cycle.  Between events the only activity
 * is the processor retrying a stalled issue against an unchanged
 * input buffer, which the stepper accounts for in one subtraction.
 *
 * EventStepper is that loop over premapped module sequences, with
 * three properties every fast caller relies on:
 *
 * - Compact per-element state: an element in flight is its stream
 *   position, its port, and the two timestamps the model reads
 *   (issue and service start; arrival and ready follow from the
 *   1-cycle bus and the T-cycle service).  Addresses and element
 *   numbers are looked up from the stream only when a Delivery is
 *   written.
 * - Output on request: Delivery records are written only when the
 *   caller materializes; summary callers get the aggregates and no
 *   O(L) buffer at all.
 * - Recurrence in its own loop (one port): with recurrence
 *   detection on, the stepper snapshots the relative machine state
 *   at issue positions one module-sequence period apart and, once a
 *   snapshot recurs, takes the affine jump over the remaining whole
 *   periods (memsys/steady_state.h).  A stream that never recurs
 *   keeps stepping from where it is, so every stream costs one pass.
 *
 * runPorts() is the P-port pass of memsys/multi_port.h's model on
 * the same modules, rings and retire heap: P streams share the
 * modules, each port has its own return bus (one output heap per
 * port, arbitrated in port order each cycle), and each cycle the
 * ports issue least-issued first.  It takes no jump.
 *
 * EventDrivenMemorySystem wraps the single-port pass into the
 * mapping-aware engine (premap, memo, attribution), and
 * EventDrivenMultiPort (memsys/event_multi_port.h) the P-port pass.
 * Results are bit-identical to the per-cycle models on every
 * stream: identical delivery records (all five timestamps and the
 * port tag), identical stall counts, identical aggregates.  The
 * per-cycle models stay in-tree as the oracles;
 * tests/test_engine_differential.cc, tests/test_collapse.cc and
 * tests/test_multi_port_differential.cc hold the stepper to that
 * contract.
 *
 * Why it is faster: the per-cycle loop scans all M modules two to
 * three times per cycle (once per port for the return buses).  This
 * engine touches only the modules named by an event (O(log M) heap
 * work each), and skips the dead cycles entirely — on heavily
 * conflicting streams, where the per-cycle model burns ~L*T
 * iterations, the event count stays O(L).
 */

#ifndef CFVA_MEMSYS_EVENT_DRIVEN_H
#define CFVA_MEMSYS_EVENT_DRIVEN_H

#include <cstdint>
#include <vector>

#include "mapping/bitslice.h"
#include "mapping/mapping.h"
#include "memsys/event_queue.h"
#include "memsys/request.h"
#include "memsys/steady_state.h"

namespace cfva {

class DeliveryArena;

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
     * @p mode selects recurrence detection: snapshots at every
     * multiple of the module sequence's smallest period (when that
     * period is at most kMaxPeriod and fits twice), the affine jump
     * on the first match, and — under JumpOrAbandon — an early stop
     * once no match is possible.
     *
     * Unless the pass was abandoned, @p result receives the scalar
     * aggregates and, when @p materialize is set, every Delivery in
     * delivery order, written as it is decided (result.deliveries
     * must be empty; capacity may be reserved; an abandoned pass
     * leaves it empty).  @p trace keeps the position-form trace
     * readable through emits() after the pass.
     *
     * @return true iff the pass jumped (a snapshot recurred)
     */
    bool run(const MemConfig &cfg, const std::vector<Request> &stream,
             const ModuleId *mods, Recurrence mode, bool materialize,
             bool trace, AccessResult &result);

    /**
     * Steps the P = streams.size() streams of a simultaneous
     * access, stream p premapped to mods[p], on the shape @p cfg:
     * every port issues one request per cycle from cycle 0, least
     * issued port first, into the shared modules, and each port's
     * return bus delivers at most one of its own elements per cycle.
     *
     * Returns each port's aggregates and the makespan.  Only when
     * @p materialize is set are the port-tagged Delivery records
     * written, in each port's delivery order, into buffers acquired
     * from @p arena (or freshly allocated); otherwise no buffer is
     * acquired at all.
     */
    MultiPortResult
    runPorts(const MemConfig &cfg,
             const std::vector<std::vector<Request>> &streams,
             const std::vector<std::vector<ModuleId>> &mods,
             bool materialize, DeliveryArena *arena = nullptr);

    /** Cycles the last pass stepped: all of them up to the last
     *  delivery (the makespan, for a P-port pass), minus the span a
     *  jump covered (or, for an abandoned pass, the cycles stepped
     *  before it stopped). */
    Cycle steppedCycles() const { return stepped_; }

    /** Position-form trace of the last pass run with @p trace. */
    const std::vector<Emit> &emits() const { return emits_; }

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

    /** One port of a P-port pass: its stream and its aggregates. */
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

    /** Sizes the module array and event heaps for @p cfg and
     *  @p ports return buses, and empties them. */
    void reset(const MemConfig &cfg, unsigned ports);

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

    std::vector<Port> ports_;        //!< P-port pass state
    std::vector<unsigned> order_;    //!< unfinished ports, least
                                     //!< issued (then lowest) first
    std::vector<ModuleId> arriving_; //!< modules this cycle's issues
                                     //!< reach next cycle

    std::vector<std::uint32_t> fail_;  //!< KMP scratch
    std::vector<std::uint32_t> positions_; //!< see run()
    std::vector<std::int64_t> sig_;    //!< snapshot-encoding scratch
    std::vector<Snapshot> snapshots_;  //!< storage, reused per pass
    std::vector<Emit> emits_;
    EmitSummary summary_;
    Cycle stepped_ = 0;
};

/**
 * Event-driven twin of MemorySystem.  Same construction contract,
 * same run() semantics, bit-identical results.
 */
class EventDrivenMemorySystem
{
  public:
    /**
     * @param cfg   subsystem shape
     * @param map   address mapping; must produce module numbers
     *              < cfg.modules()
     * @param path  stream premap strategy (see makeMemoryBackend)
     * @param collapse  On lets run() answer periodic streams via
     *              memo replay and the stepper's recurrence jump
     *              (bit-identical); Off keeps the engine a pure
     *              stepped model (see MemorySystem)
     */
    EventDrivenMemorySystem(const MemConfig &cfg,
                            const ModuleMapping &map,
                            MapPath path = MapPath::BitSliced,
                            CollapseMode collapse = CollapseMode::Off);

    /**
     * Simulates the access of @p stream issued one request per
     * cycle starting at cycle 0; see MemorySystem::run.  One
     * stepper pass answers every stream: with collapse on it jumps
     * when the state recurs and otherwise steps to the end.
     *
     * When @p arena is given, the result's delivery buffer is
     * acquired from it instead of freshly allocated — tight sweeps
     * recycle buffers by releasing them back after consumption.
     * @p premapped optionally supplies caller-computed module
     * assignments (premapped[i] = mapping of stream[i].addr);
     * otherwise the stream is premapped here, bit-sliced when the
     * mapping exposes GF(2) rows.
     */
    AccessResult run(const std::vector<Request> &stream,
                     DeliveryArena *arena = nullptr,
                     const ModuleId *premapped = nullptr);

    const MemConfig &config() const { return cfg_; }

    /** Collapse/memo attribution since construction. */
    const FastPathStats &fastPathStats() const { return fast_; }

  private:
    MemConfig cfg_;
    BitSlicedMapper slicer_;
    CollapseMode collapse_;
    std::vector<ModuleId> mods_; //!< premap scratch, reused per run
    EventStepper stepper_;
    OutcomeMemo memo_;
    FastPathStats fast_;
};

/**
 * Convenience wrapper: build an EventDrivenMemorySystem and run
 * @p stream through @p map in one call.
 */
AccessResult simulateAccessEventDriven(const MemConfig &cfg,
                                       const ModuleMapping &map,
                                       const std::vector<Request> &stream,
                                       DeliveryArena *arena = nullptr);

} // namespace cfva

#endif // CFVA_MEMSYS_EVENT_DRIVEN_H
