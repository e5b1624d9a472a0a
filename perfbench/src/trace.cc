#include <array>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <ostream>
#include <unordered_map>

#include "core/access_unit.h"
#include "mapping/bitslice.h"
#include "perfbench.h"
#include "sim/canonical.h"
#include "theory/conflict_solver.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using cfva::AccessPlan;
using cfva::AccessResult;
using cfva::Addr;
using cfva::DeliveryArena;
using cfva::MultiPortResult;
using cfva::Request;
using cfva::VectorAccessUnit;
using cfva::sim::Scenario;

const char *
to_string(SpanName name)
{
    switch (name) {
      case SpanName::Mirror: return "trace.mirror";
      case SpanName::Expand: return "sim.expand";
      case SpanName::Key: return "sim.key";
      case SpanName::Scenario: return "sim.scenario";
      case SpanName::Emit: return "sim.emit";
      case SpanName::Probes: return "trace.probes";
      case SpanName::Job: return "trace.job";
      case SpanName::Plan: return "access.plan";
      case SpanName::Premap: return "mapping.premap";
      case SpanName::Solve: return "theory.solve";
      case SpanName::Execute: return "theory.execute";
      case SpanName::Step: return "memsys.step";
    }
    return "?";
}

namespace {

constexpr std::size_t kSpanNames =
    static_cast<std::size_t>(SpanName::Step) + 1;

/** Keeps spans in memory; they are written only after the run. */
class Tracer
{
  public:
    std::uint32_t
    open(SpanName name, std::uint32_t parent, std::uint64_t job)
    {
        spans_.push_back({name, parent, job, 0, 0});
        spans_.back().startNs = now();
        return static_cast<std::uint32_t>(spans_.size() - 1);
    }

    void close(std::uint32_t id) { spans_[id].endNs = now(); }

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    std::vector<Span> take() { return std::move(spans_); }

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** One span around the enclosing scope. */
class Scoped
{
  public:
    Scoped(Tracer &t, SpanName name, std::uint32_t parent,
           std::uint64_t job)
        : t_(t), id_(t.open(name, parent, job))
    {
    }
    ~Scoped() { t_.close(id_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    Tracer &t_;
    std::uint32_t id_;
};

/** One memory access of a job's workload program. */
struct Access
{
    Addr a1 = 0;
    std::uint64_t stride = 0;
    bool capture = false; //!< the load the chaining model reads
};

/** The accesses SweepEngine::runScenario issues for @p sc, in its
 *  order, with the same base addresses and strides. */
std::vector<Access>
accessesOf(const ScenarioGrid &grid, const Scenario &sc)
{
    using cfva::sim::WorkloadKind;
    const bool single = sc.ports <= 1;
    const std::uint64_t s = sc.stride;
    switch (grid.workloads[sc.workloadIndex].kind) {
      case WorkloadKind::Single:
        return {{sc.a1, s, false}};
      case WorkloadKind::Chain:
        return {{sc.a1, s, single}};
      case WorkloadKind::Stencil:
        return {{sc.a1, s, false},
                {sc.a1 + Addr{1} * s, s, false},
                {sc.a1 + Addr{2} * s, s, single},
                {sc.a1, s, false}};
      case WorkloadKind::Retune:
        break;
    }
    std::cerr << "perfbench: the layer probes do not model retune "
                 "workloads\n";
    std::abort();
}

/** Lazily built per-mapping units, like the engine's worker arena. */
class Units
{
  public:
    explicit Units(const ScenarioGrid &grid)
        : grid_(grid), units_(grid.mappings.size())
    {
    }

    const VectorAccessUnit &
    operator[](std::size_t mi)
    {
        if (!units_[mi]) {
            units_[mi] =
                std::make_unique<VectorAccessUnit>(grid_.mappings[mi]);
        }
        return *units_[mi];
    }

  private:
    const ScenarioGrid &grid_;
    std::vector<std::unique_ptr<VectorAccessUnit>> units_;
};

/** What the mirror pass hands the probe pass. */
struct Mirrored
{
    std::vector<Scenario> jobs;
    std::vector<char> executed; //!< per job: runScenario ran it
    Outcomes outcomes;
};

/**
 * The engine's work on one grid at one thread, spanned per call:
 * expand; canonicalKey per job when the default engine dedups; one
 * runScenario per executed job (every job, or one per class); class
 * replays (unspanned, as is the engine's scheduling); CSV emit.
 */
Mirrored
mirrorGrid(const ScenarioGrid &grid, std::uint64_t jobBase,
           Tracer &tr, LayerCounts &c)
{
    using namespace cfva::sim;
    const cfva::TierPolicy tier = timedOptions(1).tier;
    const Scoped mirror(tr, SpanName::Mirror, Span::kNoParent, jobBase);
    Mirrored m;
    {
        const Scoped s(tr, SpanName::Expand, mirror.id(), jobBase);
        m.jobs = grid.expand();
    }
    const std::size_t n = m.jobs.size();
    ++c.grids;
    c.jobs += n;

    Units units(grid);
    std::vector<std::uint32_t> classOf(n);
    m.executed.assign(n, 1);
    std::size_t classCount = 0;
    c.keyed = SweepOptions{}.dedup != DedupMode::Off;
    if (c.keyed) {
        cfva::sim::WorkloadUnits keyWorkloads;
        CanonicalScratch scratch;
        DeliveryArena keyArena;
        std::vector<CanonicalKey> keys;
        std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
            byHash;
        for (std::size_t i = 0; i < n; ++i) {
            const Scenario &sc = m.jobs[i];
            CanonicalKey key;
            {
                const Scoped s(tr, SpanName::Key, mirror.id(),
                               jobBase + i);
                key = canonicalKey(grid, sc, units[sc.mappingIndex],
                                   &keyWorkloads, tier, &keyArena,
                                   scratch);
            }
            auto &bucket = byHash[key.hi ^ (key.lo << 1)];
            std::uint32_t id = static_cast<std::uint32_t>(keys.size());
            for (std::uint32_t cand : bucket) {
                if (keys[cand] == key) {
                    id = cand;
                    break;
                }
            }
            m.executed[i] = id == keys.size();
            if (m.executed[i]) {
                bucket.push_back(id);
                keys.push_back(std::move(key));
            }
            classOf[i] = id;
        }
        classCount = keys.size();
        c.classes += classCount;
    }

    // Declared in the worker arena's order: the cache references the
    // units' mappings and must be destroyed before them.
    cfva::sim::WorkloadUnits workloads;
    cfva::BackendCache cache;
    DeliveryArena arena;
    std::vector<ScenarioOutcome> classOutcome(classCount);
    m.outcomes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Scenario &sc = m.jobs[i];
        if (!m.executed[i]) {
            m.outcomes.push_back(SweepEngine::replayOutcome(
                classOutcome[classOf[i]], sc));
            continue;
        }
        {
            const Scoped s(tr, SpanName::Scenario, mirror.id(),
                           jobBase + i);
            m.outcomes.push_back(SweepEngine::runScenario(
                grid, sc, units[sc.mappingIndex], &arena, &cache,
                &workloads, tier));
        }
        const ScenarioOutcome &o = m.outcomes.back();
        ++c.executedJobs;
        c.outcomeClaimed += o.theoryClaimed;
        c.outcomeFallback += o.theoryFallback;
        if (c.keyed)
            classOutcome[classOf[i]] = o;
    }
    c.mirrorCache += cache.stats();
    c.mirrorFast += cache.fastPathStats();

    SweepReport report;
    report.outcomes = std::move(m.outcomes);
    for (const auto &cfg : grid.mappings)
        report.mappingLabels.push_back(cfg.describe());
    for (const auto &mix : grid.portMixes)
        report.portMixLabels.push_back(mix.label());
    for (const auto &wl : grid.workloads)
        report.workloadLabels.push_back(wl.label());
    CountingBuf buf;
    std::ostream csv(&buf);
    {
        const Scoped s(tr, SpanName::Emit, mirror.id(), jobBase);
        report.writeCsv(csv);
        csv.flush();
    }
    c.emitBytes += buf.bytes();
    m.outcomes = std::move(report.outcomes);
    return m;
}

/** Per-mapping state of the probe pass. */
struct ProbeState
{
    std::unique_ptr<cfva::BitSlicedMapper> mapper;
    cfva::ConflictSolver solver;
};

/**
 * Drives every access of every executed job through each layer's
 * public entry point, one span per call, recording the counts at
 * the same boundaries.  Each probe is a separate call on its own
 * state, so probe times overlap sim.scenario's work rather than
 * partition it.
 */
void
probeGrid(const ScenarioGrid &grid, const Mirrored &m,
          std::uint64_t jobBase, Tracer &tr, LayerCounts &c)
{
    const cfva::TierPolicy tier = timedOptions(1).tier;
    const Scoped probes(tr, SpanName::Probes, Span::kNoParent, jobBase);
    Units units(grid);
    std::vector<ProbeState> state(grid.mappings.size());
    cfva::BackendCache theoryCache;
    cfva::BackendCache stepCache;
    DeliveryArena arena;
    std::vector<AccessPlan> plans;
    std::vector<std::vector<cfva::ModuleId>> mods;
    std::vector<std::vector<Request>> streams;

    for (std::size_t i = 0; i < m.jobs.size(); ++i) {
        if (!m.executed[i])
            continue;
        const Scenario &sc = m.jobs[i];
        const std::uint64_t job = jobBase + i;
        const VectorAccessUnit &unit = units[sc.mappingIndex];
        ProbeState &ps = state[sc.mappingIndex];
        if (!ps.mapper) {
            ps.mapper =
                std::make_unique<cfva::BitSlicedMapper>(unit.mapping());
        }
        const unsigned P = sc.ports;
        const Scoped jobSpan(tr, SpanName::Job, probes.id(), job);

        for (const Access &a : accessesOf(grid, sc)) {
            plans.clear();
            for (unsigned p = 0; p < P; ++p) {
                const Scoped s(tr, SpanName::Plan, jobSpan.id(), job);
                plans.push_back(cfva::sim::planPortStream(
                    grid, sc, unit, p, a.a1, a.stride, &arena));
            }
            for (const AccessPlan &plan : plans) {
                ++c.planCalls;
                c.plannedElems += plan.stream.size();
                c.certifiedPlans += plan.expectConflictFree ? 1 : 0;
            }

            // The theory tier claims a certified single-port plan
            // from the window theorems alone; every other stream it
            // premaps before proving, solving, or stepping it.
            const bool certified = P == 1 && plans[0].expectConflictFree;
            mods.resize(P);
            for (unsigned p = 0; p < P && !certified; ++p) {
                const std::vector<Request> &stream = plans[p].stream;
                mods[p].resize(stream.size());
                {
                    const Scoped s(tr, SpanName::Premap, jobSpan.id(),
                                   job);
                    ps.mapper->mapWith(
                        [&stream](std::size_t k) {
                            return stream[k].addr;
                        },
                        stream.size(), mods[p].data());
                }
                ++c.premapCalls;
                c.premapElems += stream.size();
                if (ps.mapper->bitSliced())
                    c.bitslicedElems += stream.size();
            }

            if (P == 1 && !certified && !plans[0].stream.empty()) {
                const std::vector<Request> &stream = plans[0].stream;
                AccessResult r;
                bool solved = false;
                {
                    const Scoped s(tr, SpanName::Solve, jobSpan.id(),
                                   job);
                    solved = ps.solver.solve(unit.memConfig(), stream,
                                             mods[0].data(), &arena, r,
                                             a.capture);
                }
                ++c.solveAttempts;
                c.solveSuccesses += solved ? 1 : 0;
                if (stream.size() <= cfva::OutcomeMemo::kMaxLen)
                    ++c.memoLookups;
                arena.release(std::move(r.deliveries));
            }

            // The access as the sweep issues it.  execute()'s premap
            // path and collapse gate are spelled out at their
            // defaults only because the result detail follows them.
            cfva::TierCounters tc;
            if (P == 1) {
                const Scoped s(tr, SpanName::Execute, jobSpan.id(), job);
                AccessResult r = unit.execute(
                    plans[0], &arena, &theoryCache, tier, &tc,
                    cfva::MapPath::BitSliced, cfva::CollapseMode::On,
                    a.capture ? cfva::ResultDetail::SummaryIfUniform
                              : cfva::ResultDetail::Summary);
                arena.release(std::move(r.deliveries));
            } else {
                streams.resize(P);
                for (unsigned p = 0; p < P; ++p)
                    streams[p] = std::move(plans[p].stream);
                const Scoped s(tr, SpanName::Execute, jobSpan.id(), job);
                MultiPortResult r = unit.executePorts(
                    streams, &arena, &theoryCache, tier, &tc,
                    cfva::MapPath::BitSliced, cfva::CollapseMode::On,
                    cfva::ResultDetail::Summary);
                for (AccessResult &port : r.ports)
                    arena.release(std::move(port.deliveries));
            }
            ++c.accesses;
            c.claimed += tc.claimed;
            c.fallback += tc.fallback;
            if (tc.fallback) {
                cfva::FallbackReason reason = tc.lastReason;
                if (unit.config().kind == cfva::MemoryKind::DynamicTuned)
                    reason = cfva::FallbackReason::Dynamic;
                switch (reason) {
                  case cfva::FallbackReason::None:
                    break;
                  case cfva::FallbackReason::Conflicted:
                    ++c.fallbackConflicted;
                    break;
                  case cfva::FallbackReason::MultiPort:
                    ++c.fallbackMultiport;
                    break;
                  case cfva::FallbackReason::Unproven:
                    ++c.fallbackUnproven;
                    break;
                  case cfva::FallbackReason::Dynamic:
                    ++c.fallbackDynamic;
                    break;
                }

                // The declined access on the stepped engine at the
                // default tier.
                const Scoped s(tr, SpanName::Step, jobSpan.id(), job);
                if (P == 1) {
                    AccessResult r =
                        unit.execute(plans[0], &arena, &stepCache);
                    c.modelledCycles += r.latency;
                    arena.release(std::move(r.deliveries));
                } else {
                    MultiPortResult r =
                        unit.executePorts(streams, &arena, &stepCache);
                    c.modelledCycles += r.makespan;
                    for (AccessResult &port : r.ports)
                        arena.release(std::move(port.deliveries));
                }
                ++c.steppedAccesses;
            }

            if (P == 1) {
                arena.releaseRequests(std::move(plans[0].stream));
            } else {
                for (auto &s : streams)
                    arena.releaseRequests(std::move(s));
            }
        }
    }
    for (const ProbeState &ps : state)
        c.solverFast += ps.solver.stats();
}

} // namespace

TraceResult
traceGrids(const std::vector<ScenarioGrid> &grids)
{
    TraceResult r;
    Tracer tr;
    const std::int64_t start = tr.now();
    std::uint64_t jobBase = 0;
    for (const ScenarioGrid &grid : grids) {
        Mirrored m = mirrorGrid(grid, jobBase, tr, r.counts);
        probeGrid(grid, m, jobBase, tr, r.counts);
        jobBase += m.jobs.size();
        r.outcomes.push_back(std::move(m.outcomes));
    }
    r.wallNs = tr.now() - start;
    r.spans = tr.take();
    return r;
}

namespace {

/** Summed span seconds per name. */
std::array<double, kSpanNames>
spanSeconds(const std::vector<Span> &spans)
{
    std::array<double, kSpanNames> s{};
    for (const Span &sp : spans)
        s[static_cast<std::size_t>(sp.name)] +=
            static_cast<double>(sp.endNs - sp.startNs) * 1e-9;
    return s;
}

double
share(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

std::vector<std::string>
checkTrace(const TraceResult &tr, const EngineRun &run)
{
    std::vector<std::string> bad;
    const auto expect = [&bad](bool ok, const char *rule) {
        if (!ok)
            bad.emplace_back(rule);
    };
    const LayerCounts &c = tr.counts;

    expect(c.claimed + c.fallback == c.accesses,
           "theory.claimed + fallbacks != theory.accesses");
    expect(c.fallbackConflicted + c.fallbackMultiport
                   + c.fallbackUnproven + c.fallbackDynamic
               == c.fallback,
           "the fallback reasons do not sum to the fallbacks");
    expect(c.solverFast.memoHits + c.solverFast.memoMisses
               == c.memoLookups,
           "solver memo hits + misses != memo lookups");
    expect(c.executedJobs == (c.keyed ? c.classes : c.jobs),
           "executed jobs != dedup classes (or jobs, unkeyed)");

    std::array<std::uint64_t, kSpanNames> n{};
    for (const Span &s : tr.spans)
        ++n[static_cast<std::size_t>(s.name)];
    const auto count = [&n](SpanName name) {
        return n[static_cast<std::size_t>(name)];
    };
    expect(count(SpanName::Scenario) == c.executedJobs,
           "not one sim.scenario span per executed job");
    expect(count(SpanName::Job) == c.executedJobs,
           "not one trace.job span per executed job");
    expect(count(SpanName::Key) == (c.keyed ? c.jobs : 0),
           "not one sim.key span per job");
    expect(count(SpanName::Expand) == c.grids
               && count(SpanName::Emit) == c.grids,
           "not one sim.expand and one sim.emit span per grid");
    expect(count(SpanName::Plan) == c.planCalls
               && count(SpanName::Premap) == c.premapCalls
               && count(SpanName::Solve) == c.solveAttempts
               && count(SpanName::Execute) == c.accesses
               && count(SpanName::Step) == c.steppedAccesses,
           "probe span counts differ from the probe call counts");

    // Spans nest inside their parents, children never add up to more
    // than their parent, and the top-level spans fit in the wall time.
    std::vector<std::int64_t> childNs(tr.spans.size(), 0);
    std::int64_t topNs = 0;
    bool ordered = true;
    bool nested = true;
    for (const Span &s : tr.spans) {
        ordered = ordered && s.endNs >= s.startNs;
        const std::int64_t d = s.endNs - s.startNs;
        if (s.parent == Span::kNoParent) {
            topNs += d;
            continue;
        }
        if (s.parent >= tr.spans.size()) {
            nested = false;
            continue;
        }
        const Span &p = tr.spans[s.parent];
        nested = nested && s.startNs >= p.startNs && s.endNs <= p.endNs;
        childNs[s.parent] += d;
    }
    for (std::size_t i = 0; i < tr.spans.size(); ++i) {
        nested = nested
                 && childNs[i]
                        <= tr.spans[i].endNs - tr.spans[i].startNs;
    }
    expect(ordered, "a span ends before it starts");
    expect(nested, "a span leaves its parent or its children "
                   "outlast it");
    expect(topNs <= tr.wallNs,
           "the top-level spans add up to more than the wall time");

    // The mirror pass did what the untraced engine did.
    SweepRunStats sum;
    for (const SweepRunStats &st : run.stats) {
        sum.dedupClasses += st.dedupClasses;
        sum.theoryClaims += st.theoryClaims;
        sum.theoryFallbacks += st.theoryFallbacks;
        sum.backendCacheHits += st.backendCacheHits;
        sum.backendCacheMisses += st.backendCacheMisses;
        sum.collapseHits += st.collapseHits;
        sum.memoHits += st.memoHits;
        sum.memoMisses += st.memoMisses;
    }
    expect(tr.outcomes == run.outcomes,
           "the mirror pass's outcomes differ from the engine's");
    expect(c.classes == sum.dedupClasses,
           "dedup classes differ from the engine's");
    expect(c.outcomeClaimed == sum.theoryClaims
               && c.outcomeFallback == sum.theoryFallbacks,
           "theory attribution differs from the engine's");
    expect(c.claimed == c.outcomeClaimed
               && c.fallback == c.outcomeFallback,
           "the theory probes claim differently from the scenarios");
    expect(c.mirrorCache.hits == sum.backendCacheHits
               && c.mirrorCache.misses == sum.backendCacheMisses,
           "backend-cache traffic differs from the engine's");
    expect(c.mirrorFast.collapseHits == sum.collapseHits
               && c.mirrorFast.memoHits == sum.memoHits
               && c.mirrorFast.memoMisses == sum.memoMisses,
           "collapse/memo counters differ from the engine's");
    return bad;
}

std::vector<Metric>
layerMetrics(const TraceResult &tr, double e2eWall1s)
{
    const LayerCounts &c = tr.counts;
    const auto S = spanSeconds(tr.spans);
    const auto sec = [&S](SpanName name) {
        return S[static_cast<std::size_t>(name)];
    };
    const auto num = [](std::uint64_t v) {
        return static_cast<double>(v);
    };
    const double traced = sec(SpanName::Expand) + sec(SpanName::Key)
                          + sec(SpanName::Scenario)
                          + sec(SpanName::Emit);
    const std::uint64_t memoLookups =
        c.mirrorFast.memoHits + c.mirrorFast.memoMisses;
    const std::uint64_t cacheLookups =
        c.mirrorCache.hits + c.mirrorCache.misses;
    return {
        {"sim.expand_s", sec(SpanName::Expand), "s"},
        {"sim.key_s", sec(SpanName::Key), "s"},
        {"sim.key_us_per_job",
         c.keyed ? share(sec(SpanName::Key) * 1e6, num(c.jobs)) : 0.0,
         "us/job"},
        {"sim.dedup_classes", num(c.classes), "count"},
        {"sim.dedup_replay_frac",
         c.keyed ? share(num(c.jobs - c.classes), num(c.jobs)) : 0.0,
         "ratio"},
        {"sim.scenario_s", sec(SpanName::Scenario), "s"},
        {"sim.emit_s", sec(SpanName::Emit), "s"},
        {"sim.emit_mb", num(c.emitBytes) / (1024.0 * 1024.0), "MiB"},
        {"sim.untraced_s", e2eWall1s - traced, "s"},
        {"access.plan_s", sec(SpanName::Plan), "s"},
        {"access.plan_ns_per_elem",
         share(sec(SpanName::Plan) * 1e9, num(c.plannedElems)),
         "ns/elem"},
        {"access.certified_frac",
         share(num(c.certifiedPlans), num(c.planCalls)), "ratio"},
        {"mapping.premap_s", sec(SpanName::Premap), "s"},
        {"mapping.premap_ns_per_elem",
         share(sec(SpanName::Premap) * 1e9, num(c.premapElems)),
         "ns/elem"},
        {"mapping.bitsliced_frac",
         share(num(c.bitslicedElems), num(c.premapElems)), "ratio"},
        {"theory.accesses", num(c.accesses), "count"},
        {"theory.claim_rate", share(num(c.claimed), num(c.accesses)),
         "ratio"},
        {"theory.fallback_conflicted", num(c.fallbackConflicted),
         "count"},
        {"theory.fallback_multiport", num(c.fallbackMultiport),
         "count"},
        {"theory.fallback_unproven", num(c.fallbackUnproven), "count"},
        {"theory.fallback_dynamic", num(c.fallbackDynamic), "count"},
        {"theory.execute_s", sec(SpanName::Execute), "s"},
        {"theory.solve_s", sec(SpanName::Solve), "s"},
        {"theory.solve_success_rate",
         share(num(c.solveSuccesses), num(c.solveAttempts)), "ratio"},
        {"memsys.step_s", sec(SpanName::Step), "s"},
        {"memsys.stepped_accesses", num(c.steppedAccesses), "count"},
        {"memsys.ns_per_modelled_cycle",
         share(sec(SpanName::Step) * 1e9, num(c.modelledCycles)),
         "ns/cycle"},
        {"memsys.collapse_hits", num(c.mirrorFast.collapseHits),
         "count"},
        {"memsys.memo_hit_rate",
         share(num(c.mirrorFast.memoHits), num(memoLookups)), "ratio"},
        {"memsys.backend_cache_hit_rate",
         share(num(c.mirrorCache.hits), num(cacheLookups)), "ratio"},
        {"trace.overhead_frac",
         share(sec(SpanName::Mirror), e2eWall1s) - 1.0, "ratio"},
    };
}

void
writeSpans(const TraceResult &tr, std::ostream &os)
{
    os << "id\tname\tparent\tjob\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < tr.spans.size(); ++i) {
        const Span &s = tr.spans[i];
        os << i << '\t' << to_string(s.name) << '\t';
        if (s.parent == Span::kNoParent)
            os << '-';
        else
            os << s.parent;
        os << '\t' << s.job << '\t' << s.startNs << '\t' << s.endNs
           << '\n';
    }
}

} // namespace perfbench
