#include "sim/sweep_engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <ostream>
#include <thread>
#include <unordered_map>

#include "common/logging.h"
#include "common/stride.h"
#include "core/chaining.h"
#include "memsys/backend_cache.h"
#include "sim/sweep_sink.h"
#include "theory/theory.h"

namespace cfva::sim {

double
ScenarioOutcome::efficiency() const
{
    if (latency == 0)
        return 0.0;
    return static_cast<double>(minLatency)
           / static_cast<double>(latency);
}

std::uint64_t
SweepReport::conflictFreeJobs() const
{
    std::uint64_t n = 0;
    for (const auto &o : outcomes)
        n += o.conflictFree ? 1 : 0;
    return n;
}

Cycle
SweepReport::totalLatency() const
{
    Cycle sum = 0;
    for (const auto &o : outcomes)
        sum += o.latency;
    return sum;
}

std::vector<MappingSummary>
SweepReport::perMapping() const
{
    std::vector<MappingSummary> rows(mappingLabels.size());
    std::vector<double> effSum(mappingLabels.size(), 0.0);
    for (std::size_t i = 0; i < mappingLabels.size(); ++i)
        rows[i].label = mappingLabels[i];
    for (const auto &o : outcomes) {
        cfva_assert(o.mappingIndex < rows.size(),
                    "outcome references unknown mapping ",
                    o.mappingIndex);
        auto &r = rows[o.mappingIndex];
        ++r.jobs;
        r.conflictFree += o.conflictFree ? 1 : 0;
        r.totalLatency += o.latency;
        r.totalMinLatency += o.minLatency;
        r.totalStalls += o.stallCycles;
        r.theoryClaimed += o.theoryClaimed;
        r.theoryFallback += o.theoryFallback;
        effSum[o.mappingIndex] += o.efficiency();
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        rows[i].meanEfficiency =
            rows[i].jobs ? effSum[i] / static_cast<double>(rows[i].jobs)
                         : 0.0;
    }
    return rows;
}

TextTable
SweepReport::table() const
{
    TextTable t({"job", "mapping", "stride", "family", "length",
                 "a1", "ports", "port_mix", "workload", "latency",
                 "min_latency", "stalls", "conflict_free",
                 "in_window", "efficiency", "accesses", "decoupled",
                 "chained", "chain_saved", "chainable", "retunes",
                 "retune_cycles", "tier", "theory_claimed",
                 "theory_fallback", "fallback_reason"});
    for (const auto &o : outcomes) {
        t.row(o.index, mappingLabels[o.mappingIndex], o.stride,
              o.family, o.length, o.a1, o.ports,
              portMixLabels[o.portMixIndex],
              workloadLabels[o.workloadIndex], o.latency,
              o.minLatency, o.stallCycles, o.conflictFree ? 1 : 0,
              o.inWindow ? 1 : 0, fixed(o.efficiency(), 4),
              o.accesses, o.decoupledCycles, o.chainedCycles,
              o.chainSaved(), o.chainable ? 1 : 0, o.retunes,
              o.retuneCycles, o.tierLabel(), o.theoryClaimed,
              o.theoryFallback, to_string(o.fallbackReason));
    }
    return t;
}

TextTable
mappingSummaryTable(const std::vector<MappingSummary> &rows)
{
    TextTable t({"mapping", "jobs", "conflict-free", "total latency",
                 "total stalls", "mean efficiency", "theory hits"});
    for (const auto &r : rows) {
        t.row(r.label, r.jobs, ratio(r.conflictFree, r.jobs),
              r.totalLatency, r.totalStalls,
              fixed(r.meanEfficiency, 4),
              ratio(r.theoryClaimed,
                    r.theoryClaimed + r.theoryFallback));
    }
    return t;
}

std::vector<WorkloadSummary>
SweepReport::perWorkload() const
{
    std::vector<WorkloadSummary> rows(workloadLabels.size());
    for (std::size_t i = 0; i < workloadLabels.size(); ++i)
        rows[i].label = workloadLabels[i];
    for (const auto &o : outcomes) {
        cfva_assert(o.workloadIndex < rows.size(),
                    "outcome references unknown workload ",
                    o.workloadIndex);
        accumulateWorkload(rows[o.workloadIndex], o);
    }
    return rows;
}

void
accumulateWorkload(WorkloadSummary &row, const ScenarioOutcome &o)
{
    ++row.jobs;
    row.accesses += o.accesses;
    row.conflictFree += o.conflictFree ? 1 : 0;
    row.totalLatency += o.latency;
    row.totalDecoupled += o.decoupledCycles;
    row.totalChained += o.chainedCycles;
    row.chainableJobs += o.chainable ? 1 : 0;
    row.totalRetunes += o.retunes;
    row.totalRetuneCycles += o.retuneCycles;
}

TextTable
workloadSummaryTable(const std::vector<WorkloadSummary> &rows)
{
    TextTable t({"workload", "jobs", "accesses", "conflict-free",
                 "total latency", "chainable", "chain saved",
                 "retunes", "retune cycles"});
    for (const auto &r : rows) {
        t.row(r.label, r.jobs, r.accesses,
              ratio(r.conflictFree, r.jobs), r.totalLatency,
              ratio(r.chainableJobs, r.jobs), r.totalChainSaved(),
              r.totalRetunes, r.totalRetuneCycles);
    }
    return t;
}

TextTable
SweepReport::summaryTable() const
{
    return mappingSummaryTable(perMapping());
}

void
SweepReport::stream(SweepSink &sink) const
{
    SweepContext ctx;
    ctx.mappingLabels = mappingLabels;
    ctx.portMixLabels = portMixLabels;
    ctx.workloadLabels = workloadLabels;
    ctx.totalJobs = outcomes.size();
    ctx.firstJob = outcomes.empty() ? 0 : outcomes.front().index;
    ctx.lastJob = outcomes.empty() ? 0 : outcomes.back().index + 1;
    sink.begin(ctx);
    for (const auto &o : outcomes)
        sink.consume(o);
    sink.end();
}

void
SweepReport::writeCsv(std::ostream &os) const
{
    CsvStreamSink sink(os);
    stream(sink);
}

void
SweepReport::writeJson(std::ostream &os) const
{
    JsonStreamSink sink(os);
    stream(sink);
}

void
ShardSpec::validate() const
{
    cfva_assert(count >= 1, "shard count must be >= 1");
    cfva_assert(index < count, "shard index ", index,
                " out of range for ", count, " shards");
}

std::pair<std::size_t, std::size_t>
ShardSpec::sliceOf(std::size_t jobs) const
{
    return {index * jobs / count, (index + 1) * jobs / count};
}

void
SweepOptions::validate() const
{
    shard.validate();
}

std::size_t
SweepOptions::effectiveGrain(std::size_t jobs,
                             unsigned threads) const
{
    if (grain)
        return grain;
    const std::size_t target =
        kChunksPerThread * std::max(threads, 1u);
    return std::clamp<std::size_t>(jobs / target, 1,
                                   kMaxAdaptiveGrain);
}

SweepEngine::SweepEngine(SweepOptions opts) : opts_(opts)
{
    opts_.validate();
}

namespace {

// mixedStride and planPortStream live in sim/canonical.{h,cc} now:
// the canonicalizer must plan exactly the streams the engine runs,
// so both paths share one definition.

/** Scalar outcome of one access within a workload sequence. */
struct AccessStats
{
    Cycle latency = 0;
    std::uint64_t stalls = 0;
    bool conflictFree = false;

    /** Theory-tier attribution of this access (both 0 under
     *  SimulateAlways). */
    std::uint64_t claimed = 0;
    std::uint64_t fallback = 0;

    /** Taxonomy of this access's fallback (None when claimed or
     *  under SimulateAlways). */
    FallbackReason reason = FallbackReason::None;
};

/** A fallback on a dynamically re-tuned mapping is attributed to
 *  the scheme (the analysis is defeated by the re-tuning, not by
 *  any one stream), so the taxonomy reads Dynamic regardless of
 *  which analytic path gave up. */
FallbackReason
resolveReason(const VectorAccessUnit &unit, FallbackReason r)
{
    if (r != FallbackReason::None
        && unit.config().kind == MemoryKind::DynamicTuned)
        return FallbackReason::Dynamic;
    return r;
}

/**
 * Executes one access of the workload at (@p a1, @p baseStride)
 * through the unit's port-aware backend.  For a single-port
 * scenario with @p loadOut set, the full AccessResult (deliveries
 * intact) is moved there for the chaining model and NOT released —
 * the caller releases it; every other path releases delivery
 * buffers to @p arena before returning.
 */
AccessStats
runWorkloadAccess(const ScenarioGrid &grid, const Scenario &sc,
                  const VectorAccessUnit &unit, Addr a1,
                  std::uint64_t baseStride, DeliveryArena *arena,
                  BackendCache *cache, AccessResult *loadOut,
                  TierPolicy tier, MapPath path,
                  CollapseMode collapse)
{
    AccessStats out;
    // Attribution only runs while the theory tier is active, so
    // SimulateAlways rows keep both counters at 0 and read "sim".
    TierCounters tc;
    TierCounters *tcp =
        tier == TierPolicy::TheoryFirst ? &tc : nullptr;
    if (sc.ports <= 1) {
        AccessPlan p =
            planPortStream(grid, sc, unit, 0, a1, baseStride, arena);
        // The sweep folds aggregates; only the captured last load
        // feeds the chaining model, and a uniform (certified
        // conflict-free) claim's chain costs are closed-form, so no
        // sweep access ever needs a claimed delivery stream
        // materialized.  Solver (periodic) claims are non-uniform:
        // SummaryIfUniform materializes those for chainCosts().
        const ResultDetail detail = loadOut
                                        ? ResultDetail::SummaryIfUniform
                                        : ResultDetail::Summary;
        AccessResult r = unit.execute(p, arena, cache, tier, tcp,
                                      path, collapse, detail);
        out.latency = r.latency;
        out.stalls = r.stallCycles;
        out.conflictFree = r.conflictFree;
        out.claimed = tc.claimed;
        out.fallback = tc.fallback;
        out.reason = resolveReason(unit, tc.lastReason);
        if (arena)
            arena->releaseRequests(std::move(p.stream));
        if (loadOut) {
            *loadOut = std::move(r);
        } else if (arena) {
            arena->release(std::move(r.deliveries));
        }
        return out;
    }

    // Multi-port: one access per port issued simultaneously at
    // staggered base addresses — the "several vectors accessed
    // simultaneously" extension — with per-port strides drawn from
    // the scenario's port mix.  Dispatches to the backend selected
    // by the unit's engine knob.
    std::vector<std::vector<Request>> streams;
    streams.reserve(sc.ports);
    for (unsigned p = 0; p < sc.ports; ++p) {
        streams.push_back(
            planPortStream(grid, sc, unit, p, a1, baseStride, arena)
                .stream);
    }
    MultiPortResult r =
        unit.executePorts(streams, arena, cache, tier, tcp, path,
                          collapse, ResultDetail::Summary);
    if (arena) {
        for (auto &s : streams)
            arena->releaseRequests(std::move(s));
    }
    out.latency = r.makespan;
    for (auto &port : r.ports) {
        out.stalls += port.stallCycles;
        if (arena)
            arena->release(std::move(port.deliveries));
    }
    out.conflictFree = r.allConflictFree();
    out.claimed = tc.claimed;
    out.fallback = tc.fallback;
    out.reason = resolveReason(unit, tc.lastReason);
    return out;
}

/** Folds one access into the workload-level outcome totals.  The
 *  scenario's fallback reason is the first non-None access reason,
 *  except that a dynamically re-tuned mapping overrides to Dynamic
 *  (the caller resolves that before folding). */
void
foldAccess(ScenarioOutcome &out, const AccessStats &a)
{
    out.latency += a.latency;
    out.stallCycles += a.stalls;
    out.conflictFree = out.conflictFree && a.conflictFree;
    out.theoryClaimed += a.claimed;
    out.theoryFallback += a.fallback;
    if (out.fallbackReason == FallbackReason::None)
        out.fallbackReason = a.reason;
}

/**
 * The per-access latency floor: L + T + 1 for a single port; for
 * P > 1 the bandwidth-aware makespan bound
 * max(L, ceil(P*L*T/M)) + T + 1.
 */
Cycle
accessFloor(const Scenario &sc, const VectorAccessUnit &unit)
{
    const Cycle t_cycles = unit.config().serviceCycles();
    if (sc.ports <= 1)
        return theory::minimumLatency(sc.length, t_cycles);
    const std::uint64_t modules = unit.memConfig().modules();
    const std::uint64_t demand =
        (sc.ports * sc.length * t_cycles + modules - 1) / modules;
    return std::max<std::uint64_t>(sc.length, demand) + t_cycles + 1;
}

/**
 * Applies the EXECUTE step following the sequence's last load: the
 * decoupled/chained program totals grow from the pure memory total
 * by the Sec. 5F costs derived from that load's delivery stream.
 * Multi-port scenarios use the decoupled cost for both totals — the
 * paper's chaining model is a single-stream argument — and stay
 * flagged unchainable.
 */
void
applyExecuteStep(ScenarioOutcome &out, const Scenario &sc,
                 const Workload &wl, AccessResult &&lastLoad,
                 DeliveryArena *arena)
{
    if (sc.ports <= 1) {
        if (lastLoad.deliveries.empty()) {
            // Summary-claimed uniform schedule (stepped answers and
            // solver claims materialize under SummaryIfUniform, and
            // simulation always does): delivered_k = k + 1 + T, so
            // the chained pipeline never waits after its first
            // operand and the Sec. 5F costs close.
            // Matches chainingModel() on the materialized stream:
            // decoupled = (L - 1) + exec for ANY load, chained =
            // max_k(delivered_k - k) + L + exec - loadEnd = exec.
            out.decoupledCycles += (sc.length - 1) + wl.execLatency;
            out.chainedCycles += wl.execLatency;
            out.chainable = true;
            return;
        }
        const ChainCosts costs =
            chainCosts(lastLoad, wl.execLatency);
        out.decoupledCycles += costs.decoupled;
        out.chainedCycles += costs.chained;
        out.chainable = costs.chainable;
        if (arena)
            arena->release(std::move(lastLoad.deliveries));
        return;
    }
    const Cycle decoupled = (sc.length - 1) + wl.execLatency;
    out.decoupledCycles += decoupled;
    out.chainedCycles += decoupled;
    out.chainable = false;
}

/** The dynamic scheme's tuning for @p family, clamped so the m-bit
 *  module field stays inside the 64-bit address. */
unsigned
clampedTune(unsigned family, unsigned m)
{
    return std::min(family, 63u - m);
}

} // namespace

ScenarioOutcome
SweepEngine::runScenario(const ScenarioGrid &grid, const Scenario &sc,
                         const VectorAccessUnit &unit,
                         DeliveryArena *arena, BackendCache *cache,
                         WorkloadUnits *workloads, TierPolicy tier,
                         MapPath path, CollapseMode collapse)
{
    if (tier == TierPolicy::AuditBoth) {
        // Run the scenario under each tier and compare field for
        // field.  The attribution columns legitimately differ
        // (simulation never claims), so they are zeroed out of the
        // comparison; everything the paper's model predicts —
        // latency, stalls, chaining, retune charges — must match
        // exactly.  The simulated outcome is returned as ground
        // truth, wearing the theory run's attribution so audit rows
        // still report the claim rate.  The sim arm also pins the
        // collapse fast path Off so it is the pure stepped oracle;
        // the theory arm keeps the requested mode — audit therefore
        // cross-checks collapse + memo end to end as well.
        ScenarioOutcome simOut = runScenario(
            grid, sc, unit, arena, cache, workloads,
            TierPolicy::SimulateAlways, path, CollapseMode::Off);
        ScenarioOutcome thOut =
            runScenario(grid, sc, unit, arena, cache, workloads,
                        TierPolicy::TheoryFirst, path, collapse);
        ScenarioOutcome cmp = thOut;
        cmp.theoryClaimed = 0;
        cmp.theoryFallback = 0;
        cmp.fallbackReason = FallbackReason::None;
        const bool diverged = !(cmp == simOut);
        simOut.theoryClaimed = thOut.theoryClaimed;
        simOut.theoryFallback = thOut.theoryFallback;
        simOut.fallbackReason = thOut.fallbackReason;
        simOut.tierAuditDiverged = diverged;
        if (diverged) {
            cfva_warn("tier audit divergence at job ", sc.index,
                      ": stride=", sc.stride, " length=", sc.length,
                      " a1=", sc.a1, " ports=", sc.ports,
                      " (sim latency=", simOut.latency,
                      ", theory latency=", thOut.latency, ")");
        }
        return simOut;
    }

    const Stride stride(sc.stride);
    const Workload &wl = grid.workloads[sc.workloadIndex];

    ScenarioOutcome out;
    out.index = sc.index;
    out.mappingIndex = sc.mappingIndex;
    out.portMixIndex = sc.portMixIndex;
    out.workloadIndex = sc.workloadIndex;
    out.stride = sc.stride;
    out.family = stride.family();
    out.length = sc.length;
    out.a1 = sc.a1;
    out.ports = sc.ports;
    out.inWindow = unit.inWindow(stride);
    out.conflictFree = true;

    const Cycle floor1 = accessFloor(sc, unit);

    switch (wl.kind) {
      case WorkloadKind::Single: {
        out.accesses = 1;
        out.minLatency = floor1;
        foldAccess(out, runWorkloadAccess(grid, sc, unit, sc.a1,
                                          sc.stride, arena, cache,
                                          nullptr, tier, path,
                                          collapse));
        return out;
      }

      case WorkloadKind::Chain: {
        // One LOAD, one EXECUTE chained on its delivery stream.
        out.accesses = 1;
        out.minLatency = floor1;
        AccessResult load;
        const bool capture = sc.ports <= 1;
        foldAccess(out,
                   runWorkloadAccess(grid, sc, unit, sc.a1,
                                     sc.stride, arena, cache,
                                     capture ? &load : nullptr,
                                     tier, path, collapse));
        out.decoupledCycles = out.latency;
        out.chainedCycles = out.latency;
        applyExecuteStep(out, sc, wl, std::move(load), arena);
        return out;
      }

      case WorkloadKind::Stencil: {
        // Three shifted LOADs (x[i], x[i+1], x[i+2] of a stride-S
        // walk), an EXECUTE chained on the last load, one STORE.
        out.accesses = 4;
        out.minLatency = 4 * floor1;
        AccessResult lastLoad;
        for (unsigned tap = 0; tap < 3; ++tap) {
            const bool capture = sc.ports <= 1 && tap == 2;
            foldAccess(out,
                       runWorkloadAccess(
                           grid, sc, unit,
                           sc.a1 + Addr{tap} * sc.stride, sc.stride,
                           arena, cache,
                           capture ? &lastLoad : nullptr, tier,
                           path, collapse));
        }
        const Cycle loadTotal = out.latency;
        out.decoupledCycles = loadTotal;
        out.chainedCycles = loadTotal;
        applyExecuteStep(out, sc, wl, std::move(lastLoad), arena);
        const AccessStats store = runWorkloadAccess(
            grid, sc, unit, sc.a1, sc.stride, arena, cache, nullptr,
            tier, path, collapse);
        foldAccess(out, store);
        out.decoupledCycles += store.latency;
        out.chainedCycles += store.latency;
        return out;
      }

      case WorkloadKind::Retune: {
        // Two stride phases of retunePeriod accesses each: the base
        // stride, then twice it (the next family up — a row walk
        // followed by a column walk).  A DynamicTuned scheme [11]
        // re-tunes its field interleave to each incoming family and
        // pays the displacedBy relayout; static mappings run both
        // phases untouched.
        const unsigned period = wl.retunePeriod;
        out.accesses = 2 * std::uint64_t{period};
        out.minLatency = out.accesses * floor1;

        const VectorUnitConfig &cfg = unit.config();
        const bool dynamic = cfg.kind == MemoryKind::DynamicTuned;
        const unsigned m = dynamic ? cfg.m() : 0;
        unsigned current = dynamic ? cfg.dynamicTune : 0;

        const std::uint64_t phaseStrides[2] = {sc.stride,
                                               sc.stride * 2};
        for (std::uint64_t phaseStride : phaseStrides) {
            const VectorAccessUnit *phaseUnit = &unit;
            BackendCache *phaseCache = cache;
            std::unique_ptr<VectorAccessUnit> ephemeral;
            if (dynamic) {
                const unsigned tune = clampedTune(
                    Stride(phaseStride).family(), m);
                if (tune != current) {
                    ++out.retunes;
                    out.retuneCycles +=
                        workloads
                            ? workloads->relayoutCycles(
                                  m, current, tune, sc.length,
                                  cfg.serviceCycles())
                            : retuneRelayoutCycles(
                                  m, current, tune, sc.length,
                                  cfg.serviceCycles());
                    current = tune;
                }
                if (current != cfg.dynamicTune) {
                    if (workloads) {
                        phaseUnit = &workloads->retuned(
                            cfg, sc.mappingIndex, current);
                    } else {
                        // No per-worker scratch: build the variant
                        // for this phase only, and keep its backend
                        // out of the cache (a cached backend must
                        // not outlive its mapping).
                        VectorUnitConfig variant = cfg;
                        variant.dynamicTune = current;
                        ephemeral =
                            std::make_unique<VectorAccessUnit>(
                                variant);
                        phaseUnit = ephemeral.get();
                        phaseCache = nullptr;
                    }
                }
            }
            for (unsigned r = 0; r < period; ++r) {
                foldAccess(out, runWorkloadAccess(
                                    grid, sc, *phaseUnit, sc.a1,
                                    phaseStride, arena, phaseCache,
                                    nullptr, tier, path, collapse));
            }
        }
        // The relayout charge is part of the program's memory time:
        // data must be physically moved before the next access can
        // start (Sec. 6's argument against [11], quantified).
        out.latency += out.retuneCycles;
        return out;
      }
    }
    cfva_panic("unreachable workload kind");
}

ScenarioOutcome
SweepEngine::replayOutcome(const ScenarioOutcome &rep,
                           const Scenario &member)
{
    ScenarioOutcome out = rep;
    out.index = member.index;
    out.mappingIndex = member.mappingIndex;
    out.portMixIndex = member.portMixIndex;
    out.workloadIndex = member.workloadIndex;
    out.stride = member.stride;
    out.family = Stride(member.stride).family();
    out.length = member.length;
    out.a1 = member.a1;
    out.ports = member.ports;
    return out;
}

namespace {

/** A contiguous range of job indices, the unit of stealing. */
struct Chunk
{
    std::size_t first = 0;
    std::size_t last = 0; // exclusive
};

/**
 * Everything one worker touches on the hot path: its share of the
 * work, its lazily built access units, its backend cache, and its
 * delivery recycler.  Workers only take another worker's mutex
 * when stealing.
 */
struct WorkerArena
{
    std::mutex mutex;
    std::deque<Chunk> chunks;

    // Arena-local state, never shared.
    std::vector<std::unique_ptr<VectorAccessUnit>> units;

    // Re-tuned variant units and relayout memos for Retune
    // workloads; declared before `backends` for the same lifetime
    // reason as `units`.
    WorkloadUnits workloads;

    // Reuses one MemoryBackend (modules, event heaps, scratch) per
    // (engine, mapping) across all of this worker's scenarios
    // instead of rebuilding it per access.  Declared after the unit
    // holders: the cached backends reference their mappings and
    // must be destroyed first.
    BackendCache backends;

    // Recycles delivery buffers across this worker's scenarios so
    // the hot loop stops allocating one result vector per access.
    DeliveryArena deliveries;

    // Tier attribution summed over this worker's outcomes; folded
    // into SweepRunStats after the pool joins.
    std::uint64_t theoryClaims = 0;
    std::uint64_t theoryFallbacks = 0;
    std::uint64_t auditDivergences = 0;
    std::uint64_t fallbackConflicted = 0;
    std::uint64_t fallbackMultiport = 0;
    std::uint64_t fallbackUnproven = 0;
    std::uint64_t fallbackDynamic = 0;

    const VectorAccessUnit &
    unitFor(const ScenarioGrid &grid, std::size_t mappingIndex,
            const std::optional<EngineKind> &engine)
    {
        if (units.empty())
            units.resize(grid.mappings.size());
        auto &slot = units[mappingIndex];
        if (!slot) {
            VectorUnitConfig cfg = grid.mappings[mappingIndex];
            if (engine)
                cfg.engine = *engine;
            slot = std::make_unique<VectorAccessUnit>(cfg);
        }
        return *slot;
    }
};

/** Pops from the front of the worker's own deque. */
bool
popOwn(WorkerArena &w, Chunk &out)
{
    std::lock_guard<std::mutex> lock(w.mutex);
    if (w.chunks.empty())
        return false;
    out = w.chunks.front();
    w.chunks.pop_front();
    return true;
}

/** Steals from the back of a victim's deque. */
bool
stealFrom(WorkerArena &victim, Chunk &out)
{
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (victim.chunks.empty())
        return false;
    out = victim.chunks.back();
    victim.chunks.pop_back();
    return true;
}

/**
 * The ordered flush queue between the work-stealing workers and the
 * sink: completed chunks arrive in any order, the sink sees their
 * outcomes in strictly increasing job order.
 *
 * Memory stays bounded by an admission window: a worker offering a
 * chunk that starts more than `window` jobs past the lowest
 * undelivered job waits until the stream catches up.  This cannot
 * deadlock — job delivery is chunk-granular and in order, so the
 * next needed job is always the first job of some chunk, and that
 * chunk is admitted unconditionally (first == next < next+window).
 * Its holder is therefore never blocked: it is either computing the
 * chunk or pushing it successfully.  (The chunk can't sit unclaimed
 * while its owner blocks elsewhere, because workers drain their own
 * deque front-to-back in ascending job order before stealing.)
 *
 * Sink calls happen under the queue mutex, so sinks never see
 * concurrent or out-of-order calls.
 */
class OrderedFlush
{
  public:
    OrderedFlush(SweepSink &sink, std::size_t firstJob,
                 std::size_t window)
        : sink_(sink), next_(firstJob), window_(window)
    {
    }

    /** Hands a completed chunk's outcomes to the queue; blocks
     *  while the chunk is beyond the admission window. */
    void
    push(std::size_t first, std::vector<ScenarioOutcome> &&outcomes)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock,
                 [&] { return first - next_ <= window_; });
        pendingCount_ += outcomes.size();
        peak_ = std::max(peak_, pendingCount_);
        pending_.emplace(first, std::move(outcomes));
        if (delivering_)
            return; // the active deliverer will pick this chunk up

        // Become the deliverer: splice ready chunks out under the
        // lock, feed the sink with the lock RELEASED (formatting
        // and file I/O must not serialize the other workers'
        // pushes), repeat until the stream stalls.  The flag keeps
        // sink calls serialized and in order.
        delivering_ = true;
        while (!pending_.empty()
               && pending_.begin()->first == next_) {
            const std::vector<ScenarioOutcome> ready =
                std::move(pending_.begin()->second);
            pending_.erase(pending_.begin());
            next_ += ready.size();
            pendingCount_ -= ready.size();
            cv_.notify_all();
            lock.unlock();
            for (const auto &o : ready)
                sink_.consume(o);
            lock.lock();
        }
        delivering_ = false;
    }

    /** Lowest job index not yet delivered to the sink. */
    std::size_t
    delivered() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return next_;
    }

    std::size_t
    peakPending() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return peak_;
    }

  private:
    SweepSink &sink_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;

    /** Completed chunks keyed by first job index. */
    std::map<std::size_t, std::vector<ScenarioOutcome>> pending_;
    std::size_t pendingCount_ = 0;
    std::size_t peak_ = 0;
    std::size_t next_;
    std::size_t window_;
    bool delivering_ = false;
};

/** One canonical equivalence class of the dedup pre-pass. */
struct DedupClass
{
    CanonicalKey key;

    /** The outcome of the class's executed representative; measured
     *  fields only matter — replayOutcome rewrites every identity
     *  column. */
    std::optional<ScenarioOutcome> outcome;
};

/**
 * The adapter between the ordered flush and the real sink when
 * dedup is active.  The flush delivers EXECUTED outcomes (one per
 * class under DedupMode::On; every member under Audit)
 * in ascending order; this sink resolves their classes and emits
 * the full job stream — replays included — to the real sink in
 * strictly increasing job order.  Representatives are chosen in
 * ascending job order, so by the time job j stalls the drain, its
 * class's representative (some job <= j) has always already been
 * delivered or is the next execution the flush is waiting on:
 * the drain never deadlocks and always finishes at lastJob.
 * Calls are serialized by the flush.
 */
class DedupReplaySink final : public SweepSink
{
  public:
    DedupReplaySink(SweepSink &sink,
                    const std::vector<Scenario> &jobs,
                    std::size_t firstJob, std::size_t lastJob,
                    const std::vector<std::uint32_t> &classOf,
                    std::vector<DedupClass> &classes, DedupMode mode)
        : sink_(sink), jobs_(jobs), firstJob_(firstJob),
          lastJob_(lastJob), classOf_(classOf), classes_(classes),
          mode_(mode), next_(firstJob)
    {
    }

    void
    consume(const ScenarioOutcome &o) override
    {
        DedupClass &cls = classes_[classOf_[o.index - firstJob_]];
        if (!cls.outcome) {
            cls.outcome = o;
        } else if (mode_ == DedupMode::Audit) {
            const ScenarioOutcome replay =
                SweepEngine::replayOutcome(*cls.outcome,
                                           jobs_[o.index]);
            if (!(replay == o)) {
                ++auditDivergences_;
                cfva_warn("dedup audit divergence at job ", o.index,
                          ": stride=", o.stride,
                          " length=", o.length, " a1=", o.a1,
                          " ports=", o.ports,
                          " (executed latency=", o.latency,
                          ", replayed latency=", replay.latency,
                          ")");
            }
        }
        if (mode_ == DedupMode::Audit) {
            // Audit executes every member in job order; the
            // executed outcome is the ground truth that reaches
            // the sink.
            cfva_assert(o.index == next_,
                        "dedup audit stream out of order at job ",
                        o.index);
            sink_.consume(o);
            ++next_;
            return;
        }
        drain();
    }

    /** Lowest job index not yet delivered to the real sink. */
    std::size_t delivered() const { return next_; }

    std::uint64_t
    auditDivergences() const
    {
        return auditDivergences_;
    }

  private:
    /** Emits replays for every job whose class is resolved, in job
     *  order, until the stream stalls on an unexecuted class. */
    void
    drain()
    {
        while (next_ < lastJob_) {
            const DedupClass &cls =
                classes_[classOf_[next_ - firstJob_]];
            if (!cls.outcome)
                return;
            sink_.consume(SweepEngine::replayOutcome(
                *cls.outcome, jobs_[next_]));
            ++next_;
        }
    }

    SweepSink &sink_;
    const std::vector<Scenario> &jobs_;
    std::size_t firstJob_;
    std::size_t lastJob_;
    const std::vector<std::uint32_t> &classOf_;
    std::vector<DedupClass> &classes_;
    DedupMode mode_;
    std::size_t next_;
    std::uint64_t auditDivergences_ = 0;
};

} // namespace

void
SweepEngine::runToSink(const ScenarioGrid &grid, SweepSink &sink,
                       SweepRunStats *stats) const
{
    const std::vector<Scenario> jobs = grid.expand();

    SweepContext ctx;
    ctx.mappingLabels.reserve(grid.mappings.size());
    for (const auto &cfg : grid.mappings)
        ctx.mappingLabels.push_back(cfg.describe());
    ctx.portMixLabels.reserve(grid.portMixes.size());
    for (const auto &mix : grid.portMixes)
        ctx.portMixLabels.push_back(mix.label());
    ctx.workloadLabels.reserve(grid.workloads.size());
    for (const auto &wl : grid.workloads)
        ctx.workloadLabels.push_back(wl.label());
    ctx.totalJobs = jobs.size();
    const auto [firstJob, lastJob] =
        opts_.shard.sliceOf(jobs.size());
    ctx.firstJob = firstJob;
    ctx.lastJob = lastJob;

    SweepRunStats run;
    run.jobs = lastJob - firstJob;

    sink.begin(ctx);
    if (firstJob == lastJob) {
        sink.end();
        if (stats)
            *stats = run;
        return;
    }

    // Dedup pre-pass: canonicalize every job of the slice, group
    // equal keys into classes, and reduce the execution list to one
    // representative per class (Audit keeps every job — it executes
    // the members to check the replays against them).
    const DedupMode mode = opts_.dedup;
    const bool dedup = mode != DedupMode::Off;
    std::vector<std::uint32_t> classOf;
    std::vector<DedupClass> classes;
    std::vector<std::size_t> execJobs;
    DeliveryArena keyArena;
    if (dedup) {
        // The keying pre-pass runs sequentially before any worker
        // starts, so its cost is invisible in the parallel-phase
        // timings; stats report it separately.
        const auto keyStart = std::chrono::steady_clock::now();
        std::vector<std::unique_ptr<VectorAccessUnit>> units(
            grid.mappings.size());
        WorkloadUnits keyWorkloads;
        CanonicalScratch scratch;
        // (hi ^ lo) -> candidate class ids; membership is decided
        // on the full word encoding, so a digest collision cannot
        // merge two distinct classes.
        std::unordered_map<std::uint64_t,
                           std::vector<std::uint32_t>>
            byHash;
        byHash.reserve(run.jobs);
        classOf.reserve(run.jobs);
        for (std::size_t i = firstJob; i < lastJob; ++i) {
            const Scenario &sc = jobs[i];
            auto &slot = units[sc.mappingIndex];
            if (!slot) {
                slot = std::make_unique<VectorAccessUnit>(
                    grid.mappings[sc.mappingIndex]);
            }
            CanonicalKey key =
                canonicalKey(grid, sc, *slot, &keyWorkloads,
                             opts_.tier, &keyArena, scratch);
            auto &bucket = byHash[key.hi ^ (key.lo << 1)];
            std::uint32_t id = 0;
            bool found = false;
            for (std::uint32_t cand : bucket) {
                if (classes[cand].key == key) {
                    id = cand;
                    found = true;
                    break;
                }
            }
            if (!found) {
                id = static_cast<std::uint32_t>(classes.size());
                classes.push_back({std::move(key), std::nullopt});
                bucket.push_back(id);
            }
            classOf.push_back(id);
        }
        run.dedupClasses = classes.size();

        if (mode == DedupMode::Audit) {
            execJobs.resize(run.jobs);
            std::iota(execJobs.begin(), execJobs.end(), firstJob);
        } else {
            std::vector<char> claimed(classes.size(), 0);
            for (std::size_t i = firstJob; i < lastJob; ++i) {
                const std::uint32_t id = classOf[i - firstJob];
                if (claimed[id])
                    continue;
                claimed[id] = 1;
                execJobs.push_back(i);
            }
            run.dedupReplays = run.jobs - execJobs.size();
        }
        run.dedupKeySeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - keyStart)
                .count();
    }

    // With dedup active the flush delivers executed outcomes to the
    // replay adapter over DENSE positions [0, execCount) — the
    // chunks below range over positions in execJobs, not raw job
    // indices — and the adapter re-expands them into the full job
    // stream.  Off keeps the historical direct path, bit for bit.
    DedupReplaySink replay(sink, jobs, firstJob, lastJob, classOf,
                           classes, mode);
    SweepSink &flushSink =
        dedup ? static_cast<SweepSink &>(replay) : sink;
    const std::size_t execCount = dedup ? execJobs.size() : run.jobs;
    const std::size_t execFirst = dedup ? 0 : firstJob;

    if (execCount) {
        // Clamp explicit thread counts to the hardware:
        // oversubscribed workers only contend for cores (and for
        // each other's stolen chunks), so --threads 8 on a 1-CPU
        // host silently degenerates to serial execution with extra
        // scheduling cost.  The report is identical at any worker
        // count, so clamping is safe.
        const unsigned hw =
            std::max(1u, std::thread::hardware_concurrency());
        unsigned threads =
            opts_.threads ? std::min(opts_.threads, hw) : hw;
        const std::size_t grain =
            opts_.effectiveGrain(execCount, threads);
        const std::size_t chunkCount =
            (execCount + grain - 1) / grain;
        threads = static_cast<unsigned>(
            std::min<std::size_t>(threads, chunkCount));
        run.threads = threads;
        run.grain = grain;
        run.chunks = chunkCount;

        std::vector<WorkerArena> arenas(threads);
        for (std::size_t c = 0; c < chunkCount; ++c) {
            const std::size_t first = execFirst + c * grain;
            const std::size_t last = std::min(
                first + grain, execFirst + execCount);
            arenas[c % threads].chunks.push_back({first, last});
        }

        // Admission window of the ordered flush: workers may run
        // at most this many jobs ahead of the stream, which bounds
        // the outcomes in flight to O(threads x grain) regardless
        // of the grid size.
        const std::size_t window = 4 * threads * grain;
        run.pendingWindow = window;
        OrderedFlush flush(flushSink, execFirst, window);

        auto work = [&](unsigned self) {
            WorkerArena &mine = arenas[self];
            std::vector<ScenarioOutcome> buf;
            Chunk chunk;
            for (;;) {
                bool have = popOwn(mine, chunk);
                for (unsigned v = 1; !have && v < threads; ++v) {
                    have = stealFrom(arenas[(self + v) % threads],
                                     chunk);
                }
                if (!have)
                    return; // no producer: empty = done
                buf.clear();
                buf.reserve(chunk.last - chunk.first);
                for (std::size_t i = chunk.first; i < chunk.last;
                     ++i) {
                    const Scenario &sc =
                        jobs[dedup ? execJobs[i] : i];
                    buf.push_back(runScenario(
                        grid, sc,
                        mine.unitFor(grid, sc.mappingIndex,
                                     opts_.engine),
                        &mine.deliveries, &mine.backends,
                        &mine.workloads, opts_.tier, opts_.mapPath,
                        opts_.collapse));
                    const ScenarioOutcome &o = buf.back();
                    mine.theoryClaims += o.theoryClaimed;
                    mine.theoryFallbacks += o.theoryFallback;
                    mine.auditDivergences +=
                        o.tierAuditDiverged ? 1 : 0;
                    switch (o.fallbackReason) {
                      case FallbackReason::None:
                        break;
                      case FallbackReason::Conflicted:
                        ++mine.fallbackConflicted;
                        break;
                      case FallbackReason::MultiPort:
                        ++mine.fallbackMultiport;
                        break;
                      case FallbackReason::Unproven:
                        ++mine.fallbackUnproven;
                        break;
                      case FallbackReason::Dynamic:
                        ++mine.fallbackDynamic;
                        break;
                    }
                }
                flush.push(chunk.first, std::move(buf));
                buf = {};
            }
        };

        if (threads == 1) {
            work(0);
        } else {
            std::vector<std::jthread> pool;
            pool.reserve(threads);
            for (unsigned i = 0; i < threads; ++i)
                pool.emplace_back(work, i);
        }

        cfva_assert(flush.delivered() == execFirst + execCount,
                    "sweep lost jobs: delivered up to ",
                    flush.delivered(), " of [", execFirst, ", ",
                    execFirst + execCount, ")");

        run.peakPendingOutcomes = flush.peakPending();
        for (const auto &arena : arenas) {
            run.backendCacheHits += arena.backends.stats().hits;
            run.backendCacheMisses += arena.backends.stats().misses;
            run.theoryClaims += arena.theoryClaims;
            run.theoryFallbacks += arena.theoryFallbacks;
            run.tierAuditDivergences += arena.auditDivergences;
            run.fallbackConflicted += arena.fallbackConflicted;
            run.fallbackMultiport += arena.fallbackMultiport;
            run.fallbackUnproven += arena.fallbackUnproven;
            run.fallbackDynamic += arena.fallbackDynamic;
            run.arenaAcquires += arena.deliveries.acquires();
            run.arenaReuses += arena.deliveries.reuses();
            run.arenaPeakBytes += arena.deliveries.peakBytes();
            const FastPathStats fp = arena.backends.fastPathStats();
            run.collapseHits += fp.collapseHits;
            run.collapsePrefixCycles += fp.collapsePrefixCycles;
            run.memoHits += fp.memoHits;
            run.memoMisses += fp.memoMisses;
            run.steppedCycles += fp.steppedCycles;
        }
    }

    if (dedup) {
        cfva_assert(replay.delivered() == lastJob,
                    "dedup replay lost jobs: delivered up to ",
                    replay.delivered(), " of [", firstJob, ", ",
                    lastJob, ")");
        run.dedupAuditDivergences = replay.auditDivergences();
        run.arenaAcquires += keyArena.acquires();
        run.arenaReuses += keyArena.reuses();
        run.arenaPeakBytes += keyArena.peakBytes();
    }
    sink.end();

    if (stats)
        *stats = run;
}

SweepReport
SweepEngine::run(const ScenarioGrid &grid, SweepRunStats *stats) const
{
    ReportSink sink;
    runToSink(grid, sink, stats);
    return sink.take();
}

} // namespace cfva::sim
