#include "sim/sweep_engine.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "common/logging.h"
#include "common/stride.h"
#include "mapping/interleave.h"
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

void
SweepReport::stream(SweepSink &sink) const
{
    SweepContext ctx;
    ctx.mappingLabels = mappingLabels;
    ctx.portMixLabels = portMixLabels;
    ctx.workloadLabels = workloadLabels;
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
    // i * J overflows 64 bits once both pass 2^32; the quotient
    // fits again because i <= N.
    const auto bound = [&](std::size_t i) {
        return static_cast<std::size_t>(
            static_cast<unsigned __int128>(i) * jobs / count);
    };
    return {bound(index), bound(index + 1)};
}

void
SweepOptions::validate() const
{
    shard.validate();
}

SweepEngine::SweepEngine(SweepOptions opts) : opts_(opts)
{
    opts_.validate();
}

namespace {

/** Port @p p's signed stride under @p mix.  ScenarioGrid::expand
 *  rejects strides whose mixed value overflows, so this only
 *  asserts. */
std::int64_t
mixedStride(std::uint64_t baseStride, const PortMix &mix, unsigned p)
{
    const std::int64_t mult = mix.multiplierFor(p);
    const std::uint64_t mag =
        static_cast<std::uint64_t>(mult < 0 ? -mult : mult);
    cfva_assert(baseStride
                    <= (~std::uint64_t{0} >> 1) / (mag ? mag : 1),
                "port-mix stride ", baseStride, " * ", mult,
                " overflows");
    const std::int64_t scaled =
        static_cast<std::int64_t>(baseStride * mag);
    return mult < 0 ? -scaled : scaled;
}

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
 * through the unit's port-aware backend, and releases any delivery
 * buffer (only the oracle writes one) to @p arena.
 */
AccessStats
runWorkloadAccess(const ScenarioGrid &grid, const Scenario &sc,
                  const VectorAccessUnit &unit, Addr a1,
                  std::uint64_t baseStride, DeliveryArena *arena,
                  BackendCache *cache, TierPolicy tier)
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
        AccessResult r = unit.execute(p, arena, cache, tier, tcp);
        out.latency = r.latency;
        out.stalls = r.stallCycles;
        out.conflictFree = r.conflictFree;
        out.claimed = tc.claimed;
        out.fallback = tc.fallback;
        out.reason = resolveReason(unit, tc.lastReason);
        if (arena) {
            arena->releaseRequests(std::move(p.stream));
            arena->release(std::move(r.deliveries));
        }
        return out;
    }

    // Multi-port: one access per port issued simultaneously at
    // staggered base addresses — the "several vectors accessed
    // simultaneously" extension — with per-port strides drawn from
    // the scenario's port mix.
    std::vector<std::vector<Request>> streams;
    streams.reserve(sc.ports);
    for (unsigned p = 0; p < sc.ports; ++p) {
        streams.push_back(
            planPortStream(grid, sc, unit, p, a1, baseStride, arena)
                .stream);
    }
    MultiPortResult r =
        unit.executePorts(streams, arena, cache, tier, tcp);
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
 * by the Sec. 5F costs of that load, in closed form.  Decoupled
 * issue adds (L - 1) + e for execute depth e.  One return bus
 * delivers at most one element per cycle, so chained operand k
 * issues at delivered_k + 1 and only the e-cycle drain follows the
 * load; the schedule is deterministic iff the load was conflict
 * free.  These equal the Sec. 5F chaining model's costs over the
 * load's delivery stream (tests/test_chaining.cc holds them to
 * it).  Multi-port scenarios use the decoupled cost for both
 * totals — the paper's chaining model is a single-stream argument —
 * and stay flagged unchainable.
 */
void
applyExecuteStep(ScenarioOutcome &out, const Scenario &sc,
                 const Workload &wl, const AccessStats &lastLoad)
{
    const bool single = sc.ports <= 1;
    const Cycle decoupled = (sc.length - 1) + wl.execLatency;
    out.decoupledCycles += decoupled;
    out.chainedCycles += single ? wl.execLatency : decoupled;
    out.chainable = single && lastLoad.conflictFree;
}

/** The dynamic scheme's tuning for @p family, clamped so the m-bit
 *  module field ends at or below FieldInterleave::kMaxFieldEnd (the
 *  unit's config already holds m to that bound). */
unsigned
clampedTune(unsigned family, unsigned m)
{
    return std::min(family, FieldInterleave::kMaxFieldEnd - m);
}

} // namespace

AccessPlan
planPortStream(const ScenarioGrid &grid, const Scenario &sc,
               const VectorAccessUnit &unit, unsigned p, Addr a1,
               std::uint64_t baseStride, DeliveryArena *arena)
{
    const PortMix &mix = grid.portMixes[sc.portMixIndex];
    const std::int64_t stride = mixedStride(baseStride, mix, p);
    Addr start = a1 + Addr{p} * grid.portStagger;
    if (stride < 0) {
        start += (sc.length - 1)
                 * static_cast<std::uint64_t>(-stride);
    }
    return unit.plan(start, stride, sc.length,
                     arena ? arena->acquireRequests(sc.length)
                           : std::vector<Request>{});
}

ScenarioOutcome
SweepEngine::runScenario(const ScenarioGrid &grid, const Scenario &sc,
                         const VectorAccessUnit &unit,
                         DeliveryArena *arena, BackendCache *cache,
                         WorkloadUnits *workloads, TierPolicy tier)
{
    if (tier == TierPolicy::AuditBoth) {
        // Run the scenario under each tier and compare field for
        // field.  The attribution columns legitimately differ
        // (simulation never claims), so they are zeroed out of the
        // comparison; everything the paper's model predicts —
        // latency, stalls, chaining, retune charges — must match
        // exactly.  The simulated outcome is returned as ground
        // truth, wearing the theory run's attribution so audit rows
        // still report the claim rate.
        ScenarioOutcome simOut =
            runScenario(grid, sc, unit, arena, cache, workloads,
                        TierPolicy::SimulateAlways);
        ScenarioOutcome thOut =
            runScenario(grid, sc, unit, arena, cache, workloads,
                        TierPolicy::TheoryFirst);
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
                                          tier));
        return out;
      }

      case WorkloadKind::Chain: {
        // One LOAD, one EXECUTE chained on its delivery stream.
        out.accesses = 1;
        out.minLatency = floor1;
        const AccessStats load = runWorkloadAccess(
            grid, sc, unit, sc.a1, sc.stride, arena, cache, tier);
        foldAccess(out, load);
        out.decoupledCycles = out.latency;
        out.chainedCycles = out.latency;
        applyExecuteStep(out, sc, wl, load);
        return out;
      }

      case WorkloadKind::Stencil: {
        // Three shifted LOADs (x[i], x[i+1], x[i+2] of a stride-S
        // walk), an EXECUTE chained on the last load, one STORE.
        out.accesses = 4;
        out.minLatency = 4 * floor1;
        AccessStats lastLoad;
        for (unsigned tap = 0; tap < 3; ++tap) {
            lastLoad = runWorkloadAccess(
                grid, sc, unit, sc.a1 + Addr{tap} * sc.stride,
                sc.stride, arena, cache, tier);
            foldAccess(out, lastLoad);
        }
        const Cycle loadTotal = out.latency;
        out.decoupledCycles = loadTotal;
        out.chainedCycles = loadTotal;
        applyExecuteStep(out, sc, wl, lastLoad);
        const AccessStats store = runWorkloadAccess(
            grid, sc, unit, sc.a1, sc.stride, arena, cache, tier);
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
                                    tier));
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

namespace {

/** Adaptive chunks target about this many per worker: enough for
 *  the shared cursor to balance uneven scenarios without shrinking
 *  chunks into scheduling overhead. */
constexpr std::size_t kChunksPerThread = 8;

/** Chunk-size ceiling: chunks stay small enough that the ordered
 *  flush window (O(threads x grain)) stays flat on huge grids. */
constexpr std::size_t kMaxGrain = 256;

/** Jobs per chunk for a run of @p jobs on @p threads workers. */
std::size_t
adaptiveGrain(std::size_t jobs, unsigned threads)
{
    return std::clamp<std::size_t>(jobs / (kChunksPerThread * threads),
                                   1, kMaxGrain);
}

/**
 * Everything one worker touches on the hot path: its lazily built
 * access units, its backend cache, and its delivery recycler.
 */
struct WorkerArena
{
    std::vector<std::unique_ptr<VectorAccessUnit>> units;

    // Re-tuned variant units and relayout memos for Retune
    // workloads; declared before `backends` for the same lifetime
    // reason as `units`.
    WorkloadUnits workloads;

    // Reuses one backend (modules, event heaps, scratch) per
    // (tier, mapping) across all of this worker's scenarios
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
    std::uint64_t fallbackDynamic = 0;

    const VectorAccessUnit &
    unitFor(const ScenarioGrid &grid, std::size_t mappingIndex)
    {
        if (units.empty())
            units.resize(grid.mappings.size());
        auto &slot = units[mappingIndex];
        if (!slot) {
            slot = std::make_unique<VectorAccessUnit>(
                grid.mappings[mappingIndex]);
        }
        return *slot;
    }
};

/**
 * The ordered flush queue between the workers and the sink:
 * completed chunks arrive in any order, the sink sees their
 * outcomes in strictly increasing job order.
 *
 * Memory stays bounded by an admission window: a worker offering a
 * chunk that starts more than `window` jobs past the lowest
 * undelivered job waits until the stream catches up.  This cannot
 * deadlock.  Workers claim chunks in job order from one cursor, so
 * while any worker waits with a chunk, the lowest undelivered chunk
 * (which starts lower) has already been claimed.  Its holder
 * computes it and pushes it, and that push is always admitted
 * (first == next, 0 <= window).
 *
 * One worker at a time delivers (the `delivering_` flag, set and
 * cleared under the queue mutex), so sinks never see concurrent or
 * out-of-order calls.
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

/** grid.expand(), refusing a job list too large to allocate as bad
 *  input instead of letting std::bad_alloc abort the process. */
std::vector<Scenario>
expandJobs(const ScenarioGrid &grid)
{
    try {
        return grid.expand();
    } catch (const std::bad_alloc &) {
    } catch (const std::length_error &) {
    }
    const std::size_t jobs = grid.jobCount();
    cfva_fatal("cannot allocate the job list: ", jobs, " jobs x ",
               sizeof(Scenario), " B = ",
               static_cast<double>(jobs) * sizeof(Scenario)
                   / (std::uint64_t{1} << 30),
               " GiB");
}

} // namespace

void
SweepEngine::runToSink(const ScenarioGrid &grid, SweepSink &sink,
                       SweepRunStats *stats) const
{
    grid.validate();

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
    const auto [firstJob, lastJob] =
        opts_.shard.sliceOf(grid.jobCount());
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

    // Expanded after the sink has begun, so a ReportSink's outcomes,
    // which outlive this call, are reserved below the job list.  The
    // other order leaves a job-list-sized hole under them; a caller's
    // next allocation can split it and send the next sweep's job
    // list to fresh heap.
    const std::vector<Scenario> jobs = expandJobs(grid);

    // Clamp explicit thread counts to the hardware: oversubscribed
    // workers only contend for cores, so --threads 8 on a 1-CPU host
    // silently degenerates to serial execution with extra scheduling
    // cost.  The report is identical at any worker count, so
    // clamping is safe.
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    unsigned threads =
        opts_.threads ? std::min(opts_.threads, hw) : hw;
    const std::size_t grain = adaptiveGrain(run.jobs, threads);
    const std::size_t chunkCount = (run.jobs + grain - 1) / grain;
    threads = static_cast<unsigned>(
        std::min<std::size_t>(threads, chunkCount));
    run.threads = threads;
    run.grain = grain;
    run.chunks = chunkCount;

    std::vector<WorkerArena> arenas(threads);

    // Admission window of the ordered flush: workers may run at most
    // this many jobs ahead of the stream, which bounds the outcomes
    // in flight to O(threads x grain) regardless of the grid size.
    const std::size_t window = 4 * threads * grain;
    run.pendingWindow = window;
    OrderedFlush flush(sink, firstJob, window);

    // The jobs are independent, so one shared cursor hands out
    // chunks in job order; OrderedFlush relies on that order.
    std::atomic<std::size_t> nextChunk{0};

    auto work = [&](unsigned self) {
        WorkerArena &mine = arenas[self];
        std::vector<ScenarioOutcome> buf;
        for (;;) {
            const std::size_t c =
                nextChunk.fetch_add(1, std::memory_order_relaxed);
            if (c >= chunkCount)
                return;
            const std::size_t first = firstJob + c * grain;
            const std::size_t last = std::min(first + grain, lastJob);
            buf.clear();
            buf.reserve(last - first);
            for (std::size_t i = first; i < last; ++i) {
                const Scenario &sc = jobs[i];
                buf.push_back(runScenario(
                    grid, sc, mine.unitFor(grid, sc.mappingIndex),
                    &mine.deliveries, &mine.backends,
                    &mine.workloads, opts_.tier));
                const ScenarioOutcome &o = buf.back();
                mine.theoryClaims += o.theoryClaimed;
                mine.theoryFallbacks += o.theoryFallback;
                mine.auditDivergences += o.tierAuditDiverged ? 1 : 0;
                switch (o.fallbackReason) {
                  case FallbackReason::None:
                  case FallbackReason::Unproven: // no path produces it
                    break;
                  case FallbackReason::Conflicted:
                    ++mine.fallbackConflicted;
                    break;
                  case FallbackReason::MultiPort:
                    ++mine.fallbackMultiport;
                    break;
                  case FallbackReason::Dynamic:
                    ++mine.fallbackDynamic;
                    break;
                }
            }
            flush.push(first, std::move(buf));
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

    cfva_assert(flush.delivered() == lastJob,
                "sweep lost jobs: delivered up to ",
                flush.delivered(), " of [", firstJob, ", ", lastJob,
                ")");

    run.peakPendingOutcomes = flush.peakPending();
    for (const auto &arena : arenas) {
        run.backendCacheHits += arena.backends.stats().hits;
        run.backendCacheMisses += arena.backends.stats().misses;
        run.theoryClaims += arena.theoryClaims;
        run.theoryFallbacks += arena.theoryFallbacks;
        run.tierAuditDivergences += arena.auditDivergences;
        run.fallbackConflicted += arena.fallbackConflicted;
        run.fallbackMultiport += arena.fallbackMultiport;
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
