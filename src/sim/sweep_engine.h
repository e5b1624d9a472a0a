/**
 * @file
 * SweepEngine: batch execution of conflict-free access scenarios.
 *
 * The north-star workloads evaluate mapping designs over enormous
 * (mapping x stride x length x start x ports) grids, not one
 * configuration at a time.  The engine expands a ScenarioGrid into
 * independent jobs, optionally narrows them to one deterministic
 * shard of N (ShardSpec — the unit of multi-process scale-out),
 * and runs them on a pool of std::jthread workers that claim
 * fixed-size chunks in job order from one shared cursor.  Each
 * worker has a private arena holding its unit cache, backend cache,
 * and delivery recycler, so workers share no mutable state on the
 * hot path.  Outcomes stream in job order through a SweepSink
 * (sim/sweep_sink.h); run() is the materializing convenience over
 * runToSink().  Results are identical at any thread count and shard
 * split.
 */

#ifndef CFVA_SIM_SWEEP_ENGINE_H
#define CFVA_SIM_SWEEP_ENGINE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/logging.h"
#include "core/access_unit.h"
#include "sim/canonical.h"
#include "sim/scenario.h"

namespace cfva::sim {

class SweepSink;

/** Measured outcome of one scenario. */
struct ScenarioOutcome
{
    std::size_t index = 0;        //!< job id (= Scenario::index)
    std::size_t mappingIndex = 0; //!< into the grid's mapping axis
    std::size_t portMixIndex = 0; //!< into the grid's port-mix axis
    std::size_t workloadIndex = 0; //!< into the grid's workload axis
    std::uint64_t stride = 0;     //!< base stride (mix scales it)
    unsigned family = 0;          //!< x with stride = sigma * 2^x
    std::uint64_t length = 0;
    Addr a1 = 0;
    unsigned ports = 1;

    /**
     * Memory cycles of the workload: the sum of its access
     * latencies (multi-port: makespans) plus any retune relayout
     * charge.  For the Single workload this is exactly the access
     * latency, unchanged from the pre-workload engine.
     */
    Cycle latency = 0;

    /**
     * The latency floor: per access, L + T + 1 for a single port
     * and the bandwidth-aware makespan bound
     * max(L, ceil(P*L*T/M)) + T + 1 for P > 1; summed over the
     * workload's accesses (retune relayout is never part of the
     * floor — that gap is exactly the cost being measured).
     */
    Cycle minLatency = 0;

    /** Processor stall cycles (multi-port: summed over ports;
     *  workloads: summed over accesses). */
    std::uint64_t stallCycles = 0;

    /**
     * Single port: the access achieved minLatency.  Multi-port:
     * every port achieved its own single-stream floor L + T + 1 —
     * which is stricter than making the reported minLatency when
     * the makespan is bandwidth-bound (M < P*T), and looser when
     * inter-port interference stalls a port without stretching the
     * makespan.
     */
    bool conflictFree = false;

    /** Stride family inside the unit's Theorem 1/3 window. */
    bool inWindow = false;

    /** Memory accesses the workload executed (1 for Single). */
    std::uint64_t accesses = 1;

    /**
     * Program total in decoupled mode — memory cycles plus every
     * EXECUTE step issued only after its load completes (Sec. 5F's
     * baseline).  0 for workloads without an EXECUTE step.
     */
    Cycle decoupledCycles = 0;

    /** Program total with LOAD/EXECUTE chaining (equals
     *  decoupledCycles when nothing chains). */
    Cycle chainedCycles = 0;

    /** Every EXECUTE step met the Sec. 5F precondition
     *  (deterministic one-per-cycle delivery; single-port only). */
    bool chainable = false;

    /** Times a DynamicTuned mapping re-tuned between accesses. */
    std::uint64_t retunes = 0;

    /** Analytic relayout cycles those retunes charged
     *  (DynamicFieldMapping::displacedBy; included in latency). */
    Cycle retuneCycles = 0;

    /** Accesses of this scenario the analytic theory tier answered
     *  without simulating (0 under TierPolicy::SimulateAlways). */
    std::uint64_t theoryClaimed = 0;

    /** Accesses the theory tier stepped instead of claiming (0
     *  under SimulateAlways). */
    std::uint64_t theoryFallback = 0;

    /** TierPolicy::AuditBoth found the tiers disagreeing on this
     *  scenario.  Diagnostic only: excluded from CSV/JSON rows
     *  (the audit run itself exits nonzero). */
    bool tierAuditDiverged = false;

    /**
     * Why the theory tier fell back on this scenario: the first
     * non-None reason across the workload's accesses (None when
     * every access was claimed, and always None under
     * SimulateAlways).  Any fallback on a dynamically re-tuned
     * mapping reads Dynamic — the scheme, not the stream, defeats
     * the analysis.  Deterministic per scenario, so reports stay
     * identical at any thread count and shard.
     */
    FallbackReason fallbackReason = FallbackReason::None;

    /** Which tier produced this row: "theory" when the theory tier
     *  was active (it attributes every access as claimed or
     *  fallback), "sim" otherwise.  AuditBoth rows carry the
     *  theory attribution and so read "theory". */
    const char *
    tierLabel() const
    {
        return (theoryClaimed || theoryFallback) ? "theory" : "sim";
    }

    /** minLatency / latency, the workload efficiency. */
    double efficiency() const;

    /** Cycles chaining saves on this workload. */
    Cycle chainSaved() const
    {
        return decoupledCycles - chainedCycles;
    }

    bool operator==(const ScenarioOutcome &o) const = default;
};

/** The merged result of one sweep, ordered by job index. */
struct SweepReport
{
    /** Per-scenario outcomes, sorted by Scenario::index. */
    std::vector<ScenarioOutcome> outcomes;

    /** describe() of each grid mapping, indexed by mappingIndex. */
    std::vector<std::string> mappingLabels;

    /** label() of each grid port mix, indexed by portMixIndex. */
    std::vector<std::string> portMixLabels;

    /** label() of each grid workload, indexed by workloadIndex. */
    std::vector<std::string> workloadLabels;

    std::size_t jobs() const { return outcomes.size(); }

    /**
     * Replays the materialized outcomes through @p sink
     * (begin/consume.../end).  writeCsv and writeJson are this
     * plus the matching stream sink, which is what makes streamed
     * and materialized output byte-identical by construction.
     */
    void stream(SweepSink &sink) const;

    /** CSV of the per-scenario table. */
    void writeCsv(std::ostream &os) const;

    /** JSON array of per-scenario objects. */
    void writeJson(std::ostream &os) const;

    bool operator==(const SweepReport &o) const = default;
};

/**
 * One deterministic slice of a grid's job list: shard index of
 * count, covering jobs [floor(i*J/N), floor((i+1)*J/N)).  Shards
 * are disjoint, cover every job, and are contiguous in job order —
 * so concatenating the N shard outputs reproduces the unsharded
 * report bit for bit (tools/cfva_merge does exactly that).
 */
struct ShardSpec
{
    std::size_t index = 0; //!< 0-based shard id
    std::size_t count = 1; //!< total shards; 1 = the whole grid

    /** Panics unless 0 <= index < count. */
    void validate() const;

    /** The [first, last) job slice of this shard over @p jobs. */
    std::pair<std::size_t, std::size_t>
    sliceOf(std::size_t jobs) const;

    bool operator==(const ShardSpec &o) const = default;
};

/** Observability counters filled by one run (not part of report
 *  identity: they legitimately vary with threads and shard). */
struct SweepRunStats
{
    std::size_t jobs = 0;    //!< jobs this run executed (its slice)
    unsigned threads = 0;    //!< workers actually started
    std::size_t grain = 0;   //!< jobs per chunk (adaptive)
    std::size_t chunks = 0;  //!< chunks the workers claimed

    /** Backend-cache hits/misses summed over all workers: misses
     *  count backend constructions, hits count reuses — the
     *  per-access setup cost the cache eliminated. */
    std::uint64_t backendCacheHits = 0;
    std::uint64_t backendCacheMisses = 0;

    /** Theory-tier attribution summed over all workers: claims
     *  count accesses answered analytically, fallbacks count
     *  accesses that simulated while the tier was active.  Both 0
     *  under TierPolicy::SimulateAlways. */
    std::uint64_t theoryClaims = 0;
    std::uint64_t theoryFallbacks = 0;

    /** Scenarios on which TierPolicy::AuditBoth caught the tiers
     *  disagreeing (cfva_sweep --tier audit exits nonzero when
     *  this is nonzero). */
    std::uint64_t tierAuditDivergences = 0;

    /** Fallback taxonomy over this run's scenarios: scenarios
     *  whose first fallback was a conflicted stream, a multi-port
     *  access with a port not claimed (ports sharing modules, or a
     *  disjoint port stepped to its end), or a dynamically re-tuned
     *  mapping.  All 0 when the theory tier never fell back (or was
     *  inactive). */
    std::uint64_t fallbackConflicted = 0;
    std::uint64_t fallbackMultiport = 0;
    std::uint64_t fallbackDynamic = 0;

    /** High-water mark of outcomes parked in the ordered flush
     *  queue, and the admission window that bounds it: the
     *  outcomes in flight are O(window), not O(jobs). */
    std::size_t peakPendingOutcomes = 0;
    std::size_t pendingWindow = 0;

    /** Worker-arena accounting summed over all workers: buffer
     *  requests served, requests served from a pool instead of the
     *  allocator, and the summed high-water mark of retained pool
     *  capacity.  A healthy hot path reuses nearly every request
     *  after warmup (arenaReuses / arenaAcquires -> 1). */
    std::uint64_t arenaAcquires = 0;
    std::uint64_t arenaReuses = 0;
    std::size_t arenaPeakBytes = 0;

    /** Periodic fast-path attribution summed over all workers
     *  (memsys/steady_state.h): accesses answered by steady-state
     *  collapse, the cycles those accesses still stepped,
     *  outcome-memo hits/misses, and the cycles stepped by
     *  passes that did not jump (streams, disjoint ports among
     *  them, stepped to their end, and the makespan of every P-port
     *  pass over ports that share modules), so the stepped work adds
     *  up.  Only the theory tier counts here: the oracle has no fast
     *  path, so the simulation tier reports 0. */
    std::uint64_t collapseHits = 0;
    std::uint64_t collapsePrefixCycles = 0;
    std::uint64_t memoHits = 0;
    std::uint64_t memoMisses = 0;
    std::uint64_t steppedCycles = 0;

    /** Always 0: scenario dedup was deleted (sim/canonical.h).
     *  ROADMAP item 1 deletes it. */
    std::uint64_t dedupClasses = 0;
};

/** Engine tuning knobs. */
struct SweepOptions
{
    /** Worker threads; 0 means std::thread::hardware_concurrency. */
    unsigned threads = 0;

    /** Which shard of the grid this run executes; the default is
     *  the whole grid.  Sharded runs emit disjoint, contiguous job
     *  ranges that merge back into the unsharded report. */
    ShardSpec shard;

    /**
     * Evaluation tier for every scenario: the stepped oracle
     * (default), the evaluator that claims what it can and steps the
     * rest, or both with a bit-for-bit cross-check (SweepRunStats
     * counts the divergences).  Reports are identical across tiers
     * by construction except for the tier-attribution columns.
     */
    TierPolicy tier = TierPolicy::SimulateAlways;

    /** Ignored; the field stays only until ROADMAP item 1 drops it
     *  from the benchmark. */
    CollapseMode collapse = CollapseMode::On;

    /** Ignored; its one value runs every job.  ROADMAP item 1
     *  deletes it with DedupMode (sim/canonical.h). */
    DedupMode dedup = DedupMode::Off;

    /** Panics on an impossible shard spec.  Any thread count is
     *  valid. */
    void validate() const;
};

/**
 * Plans port @p p's stream of one workload access: stride scaled by
 * the mix, base address staggered per port, descending accesses
 * anchored at the top of their block so no address underflows.
 * @p a1 and @p baseStride are the access's own values — workloads
 * shift/scale them between accesses of a sequence.  With @p arena
 * the stream buffer is drawn from the worker's request pool; the
 * caller releases it back after use.
 */
AccessPlan planPortStream(const ScenarioGrid &grid,
                          const Scenario &sc,
                          const VectorAccessUnit &unit, unsigned p,
                          Addr a1, std::uint64_t baseStride,
                          DeliveryArena *arena);

/**
 * Expands grids and runs their jobs on a pool of worker threads.
 * The engine is stateless between run() calls and safe to reuse.
 */
class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions opts = {});

    /**
     * Expands @p grid and simulates every job of this run's shard,
     * materializing the outcomes into a SweepReport (a ReportSink
     * over runToSink).  Invalid mapping configurations fail fast
     * through validate() before any worker starts.  When @p stats
     * is given, the run's observability counters are written to it.
     */
    SweepReport run(const ScenarioGrid &grid,
                    SweepRunStats *stats = nullptr) const;

    /**
     * The streaming core: validates @p grid, begins @p sink, expands
     * the grid, narrows to this run's shard, simulates every job on
     * the worker pool, and feeds the outcomes to @p sink in strictly
     * increasing job-index order.  A grid that fails validation
     * fails before the sink sees anything.
     * Workers claim chunks in job order and push each completed
     * chunk into an ordered flush queue whose admission window
     * bounds the outcomes in flight to O(threads x grain); a worker
     * that runs far ahead of the lowest undelivered chunk waits.
     * The expanded job list itself is O(jobs).
     */
    void runToSink(const ScenarioGrid &grid, SweepSink &sink,
                   SweepRunStats *stats = nullptr) const;

    /**
     * Simulates one scenario — the full workload program the
     * scenario names — on @p unit (the unit built from the
     * scenario's mapping configuration).  Exposed so single-job
     * callers and tests can cross-check the batch path against a
     * direct simulation.  When @p arena is given, delivery buffers
     * are recycled through it (the engine passes each worker's
     * arena; records are released back once the outcome scalars
     * are extracted).  When @p cache is given, the memory backend
     * is reused from it instead of rebuilt for this access (the
     * engine passes each worker's cache).  When @p workloads is
     * given, re-tuned variant units of Retune workloads are reused
     * from it (the engine passes each worker's scratch); without
     * it, variants are built ephemerally — bypassing @p cache for
     * their accesses, since a cached backend must not outlive its
     * mapping — and results are identical either way.  @p tier
     * selects the evaluation tier; AuditBoth runs the scenario
     * under both tiers, compares the outcomes field for field
     * (modulo the attribution columns), and returns the simulated
     * outcome with the theory attribution and the divergence flag
     * attached.
     */
    static ScenarioOutcome runScenario(const ScenarioGrid &grid,
                                       const Scenario &sc,
                                       const VectorAccessUnit &unit,
                                       DeliveryArena *arena = nullptr,
                                       BackendCache *cache = nullptr,
                                       WorkloadUnits *workloads =
                                           nullptr,
                                       TierPolicy tier =
                                           TierPolicy::SimulateAlways);

    /** Panics: no sweep replays outcomes since scenario dedup was
     *  deleted.  ROADMAP item 1 deletes it. */
    static ScenarioOutcome
    replayOutcome(const ScenarioOutcome &, const Scenario &)
    {
        cfva_panic("replayOutcome: scenario dedup was deleted");
    }

    const SweepOptions &options() const { return opts_; }

  private:
    SweepOptions opts_;
};

} // namespace cfva::sim

#endif // CFVA_SIM_SWEEP_ENGINE_H
