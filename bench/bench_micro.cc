/**
 * @file
 * Google-benchmark microbenchmarks: throughput of the address
 * mappings, stream generators, AGU models, and the cycle-accurate
 * simulator.  These gauge the simulation infrastructure itself (the
 * paper's results are latency shapes, covered by E1-E13).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <ostream>
#include <sstream>
#include <streambuf>

#include "access/agu.h"
#include "access/ordering.h"
#include "core/access_unit.h"
#include "mapping/gf2_linear.h"
#include "mapping/interleave.h"
#include "mapping/skew.h"
#include "mapping/xor_matched.h"
#include "mapping/xor_sectioned.h"
#include "memsys/backend_cache.h"
#include "memsys/event_driven.h"
#include "memsys/memory_system.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "sim/sweep_sink.h"

namespace {

using namespace cfva;

template <typename Map>
void
mappingThroughput(benchmark::State &state, const Map &map)
{
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.moduleOf(a));
        a += 12;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_MapInterleave(benchmark::State &state)
{
    mappingThroughput(state, LowOrderInterleave(3));
}
BENCHMARK(BM_MapInterleave);

void
BM_MapXorMatched(benchmark::State &state)
{
    mappingThroughput(state, XorMatchedMapping(3, 4));
}
BENCHMARK(BM_MapXorMatched);

void
BM_MapXorSectioned(benchmark::State &state)
{
    mappingThroughput(state, XorSectionedMapping(3, 4, 9));
}
BENCHMARK(BM_MapXorSectioned);

void
BM_MapSkew(benchmark::State &state)
{
    mappingThroughput(state, SkewedMapping(3, 4, 3));
}
BENCHMARK(BM_MapSkew);

void
BM_MapGF2(benchmark::State &state)
{
    mappingThroughput(state, GF2LinearMapping::matched(3, 4));
}
BENCHMARK(BM_MapGF2);

void
BM_ConflictFreeOrderGeneration(benchmark::State &state)
{
    const XorMatchedMapping map(3, 4);
    const auto plan = makeSubsequencePlan(
        3, 4, Stride(12), static_cast<std::uint64_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(conflictFreeOrder(16, plan, map));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ConflictFreeOrderGeneration)->Arg(128)->Arg(1024);

void
BM_OutOfOrderAguStep(benchmark::State &state)
{
    const XorMatchedMapping map(3, 4);
    const auto plan = makeSubsequencePlan(3, 4, Stride(12), 128);
    auto key = [&map](Addr a) { return map.moduleOf(a); };
    OutOfOrderAgu agu(16, plan, key);
    for (auto _ : state) {
        if (agu.done()) {
            state.PauseTiming();
            agu = OutOfOrderAgu(16, plan, key);
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(agu.step());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OutOfOrderAguStep);

/**
 * One planned access on the stepped oracle, per stream shape
 * (conflict free = every cycle busy; conflicted = mostly stalls).
 */
void
BM_SimulateAccess(benchmark::State &state, std::uint64_t stride)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const auto plan = unit.plan(16, Stride(stride), 128);
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.execute(plan));
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK_CAPTURE(BM_SimulateAccess, conflict_free, 12);
BENCHMARK_CAPTURE(BM_SimulateAccess, conflicted, 32);

/** Which implementation BM_Step times. */
enum class StepVariant
{
    Oracle,         //!< the per-cycle MemorySystem
    StepperSummary, //!< EventStepper writing only the aggregates
};

/**
 * The stepping layer on its own, per element: the per-cycle oracle
 * against the event stepper as the theory tier runs it (recurrence
 * jump on, stepping on to the end when nothing recurs), writing only
 * the aggregates.  The pseudo-random stream is aperiodic, so the
 * stepper steps all of it; the matched stream (family 6, outside the
 * Theorem 1 window) conflicts periodically, so the stepper jumps.
 * The stepper's streams are premapped outside the timed loop; the
 * oracle premaps inside its run.
 */
void
BM_Step(benchmark::State &state, StepVariant variant, MemoryKind kind)
{
    VectorUnitConfig cfg; // M = T = 8, L = 128
    cfg.kind = kind;
    cfg.t = 3;
    cfg.lambda = 7;
    const VectorAccessUnit unit(cfg);
    const auto length = static_cast<std::uint64_t>(state.range(0));
    const std::uint64_t stride =
        kind == MemoryKind::PseudoRandom ? 1 : std::uint64_t{1} << 6;
    const AccessPlan plan = unit.plan(16, Stride(stride), length);
    std::vector<ModuleId> mods(plan.stream.size());
    for (std::size_t i = 0; i < mods.size(); ++i)
        mods[i] = unit.mapping().moduleOf(plan.stream[i].addr);

    MemorySystem oracle(unit.memConfig(), unit.mapping());
    EventStepper stepper;
    for (auto _ : state) {
        if (variant == StepVariant::Oracle) {
            const AccessResult r = oracle.runSingle(plan.stream);
            benchmark::DoNotOptimize(r.deliveries.data());
            benchmark::ClobberMemory();
            continue;
        }
        AccessResult r;
        stepper.run(unit.memConfig(), plan.stream, mods.data(), false, r);
        benchmark::DoNotOptimize(r.latency);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(length));
}

void
stepLengths(benchmark::internal::Benchmark *b)
{
    for (std::int64_t length : {64, 200, 65536, 1000000})
        b->Arg(length);
    b->Unit(benchmark::kMicrosecond);
}

BENCHMARK_CAPTURE(BM_Step, prand_oracle, StepVariant::Oracle,
                  MemoryKind::PseudoRandom)
    ->Apply(stepLengths);
BENCHMARK_CAPTURE(BM_Step, prand_stepper_summary,
                  StepVariant::StepperSummary, MemoryKind::PseudoRandom)
    ->Apply(stepLengths);
BENCHMARK_CAPTURE(BM_Step, matched_oracle, StepVariant::Oracle,
                  MemoryKind::Matched)
    ->Apply(stepLengths);
BENCHMARK_CAPTURE(BM_Step, matched_stepper_summary,
                  StepVariant::StepperSummary, MemoryKind::Matched)
    ->Apply(stepLengths);

/**
 * The multi-port stepping layer on its own, per element: P ports of
 * the matched M = T = 8 unit each plan stride 1 from bases 2^20
 * apart (the sweep's default port stagger), so every port visits
 * every module and the ports contend for all of them.  The
 * per-cycle MemorySystem oracle (which premaps inside its run)
 * against the event stepper's P-port pass as the theory tier runs
 * it, for aggregates only, premapped outside the timed loop.
 */
void
BM_StepPorts(benchmark::State &state, StepVariant variant)
{
    VectorUnitConfig cfg;
    cfg.t = 3;
    cfg.lambda = 7;
    const VectorAccessUnit unit(cfg);
    const auto ports = static_cast<unsigned>(state.range(0));
    const auto length = static_cast<std::uint64_t>(state.range(1));
    std::vector<std::vector<Request>> streams;
    std::vector<std::vector<ModuleId>> mods;
    for (unsigned p = 0; p < ports; ++p) {
        streams.push_back(
            unit.plan(16 + (Addr{p} << 20), Stride(1), length).stream);
        mods.emplace_back();
        for (const Request &r : streams.back())
            mods.back().push_back(unit.mapping().moduleOf(r.addr));
    }

    MemorySystem oracle(unit.memConfig(), unit.mapping());
    EventStepper stepper;
    for (auto _ : state) {
        const MultiPortResult r =
            variant == StepVariant::Oracle
                ? oracle.run(streams)
                : stepper.runPorts(unit.memConfig(), streams, mods, false);
        benchmark::DoNotOptimize(r.ports.data());
        benchmark::DoNotOptimize(r.makespan);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(ports * length));
}

void
stepPortShapes(benchmark::internal::Benchmark *b)
{
    b->ArgNames({"P", "L"});
    for (std::int64_t ports : {2, 3})
        for (std::int64_t length : {64, 200})
            b->Args({ports, length});
    b->Unit(benchmark::kMicrosecond);
}

BENCHMARK_CAPTURE(BM_StepPorts, oracle, StepVariant::Oracle)
    ->Apply(stepPortShapes);
BENCHMARK_CAPTURE(BM_StepPorts, stepper_summary,
                  StepVariant::StepperSummary)
    ->Apply(stepPortShapes);

void
BM_PlanFullAccess(benchmark::State &state)
{
    const VectorAccessUnit unit(paperMatchedExample());
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.plan(16, Stride(12), 128));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanFullAccess);

/**
 * The planner layer on its own, per element, for each policy on the
 * paper's matched example (M = T = 8, L = 128): in-order (x = s),
 * conflict-free (stride 12), chunked by L, and split-short.  The
 * stream buffer is recycled as a sweep worker's arena recycles it,
 * so a row reads beside the trace's access.plan_ns_per_elem.
 */
void
BM_Plan(benchmark::State &state)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const Stride stride(static_cast<std::uint64_t>(state.range(0)));
    const auto length = static_cast<std::uint64_t>(state.range(1));
    std::vector<Request> buf;
    AccessPolicy policy = AccessPolicy::InOrder;
    for (auto _ : state) {
        AccessPlan p = unit.plan(16, stride, length, std::move(buf));
        benchmark::DoNotOptimize(p.stream.data());
        benchmark::ClobberMemory();
        policy = p.policy;
        buf = std::move(p.stream);
    }
    state.SetLabel(to_string(policy));
    const auto elems = static_cast<double>(state.iterations())
                       * static_cast<double>(length);
    state.SetItemsProcessed(static_cast<std::int64_t>(elems));
    state.counters["per_elem"] = benchmark::Counter(
        elems, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_Plan)
    ->ArgNames({"stride", "L"})
    ->Args({16, 128})      // in-order
    ->Args({12, 128})      // conflict-free
    ->Args({12, 4096})     // chunked-by-L
    ->Args({12, 65536})    // chunked-by-L
    ->Args({12, 200})      // split-short
    ->Args({12, 1000000}); // split-short

/**
 * The per-access setup cost the backend cache removes: the same
 * plan executed with a fresh backend per access (the historical
 * hot path) vs through a per-worker BackendCache.  The cached/
 * fresh ratio is the construction overhead at this M.
 */
void
BM_ExecuteBackend(benchmark::State &state, bool cached)
{
    const VectorAccessUnit unit(paperSectionedExample()); // M = 64
    const auto plan = unit.plan(16, Stride(12), 128);
    BackendCache cache;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            unit.execute(plan, nullptr, cached ? &cache : nullptr));
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK_CAPTURE(BM_ExecuteBackend, fresh, false);
BENCHMARK_CAPTURE(BM_ExecuteBackend, cached, true);

/**
 * End-to-end streaming sweep: a small grid run through runToSink
 * with the CSV sink into a discarded buffer — the full production
 * pipeline (expansion, worker pool, backend cache, ordered flush,
 * formatting) measured per scenario.
 */
void
BM_SweepStreamCsv(benchmark::State &state)
{
    sim::ScenarioGrid grid;
    grid.mappings.push_back(paperMatchedExample());
    grid.addFamilies(0, 4, {1, 3});
    grid.randomStarts = 1;

    sim::SweepOptions opts;
    opts.threads = static_cast<unsigned>(state.range(0));
    opts.tier = TierPolicy::TheoryFirst;
    const sim::SweepEngine engine(opts);
    for (auto _ : state) {
        std::ostringstream sink_os;
        sim::CsvStreamSink sink(sink_os);
        engine.runToSink(grid, sink);
        benchmark::DoNotOptimize(sink_os);
    }
    state.SetItemsProcessed(state.iterations()
                            * grid.jobCount());
}
BENCHMARK(BM_SweepStreamCsv)->Arg(1)->Arg(2)->Arg(4);

/** A streambuf that counts and drops what it is given, so the emit
 *  rows time the row formatting alone. */
class DiscardBuf final : public std::streambuf
{
  public:
    std::uint64_t bytes() const { return bytes_; }

  protected:
    int_type
    overflow(int_type ch) override
    {
        ++bytes_;
        return traits_type::not_eof(ch);
    }

    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        bytes_ += static_cast<std::uint64_t>(n);
        return n;
    }

  private:
    std::uint64_t bytes_ = 0;
};

/** The emit rows' outcomes: the paper grid ({matched, sectioned} x
 *  t = 2, 3 x 64 strides x 64 starts = 16384 full-register jobs),
 *  answered once by the theory tier. */
const sim::SweepReport &
emitReport()
{
    static const sim::SweepReport report = [] {
        sim::ScenarioGrid grid;
        for (MemoryKind kind :
             {MemoryKind::Matched, MemoryKind::Sectioned}) {
            for (unsigned t : {2u, 3u}) {
                VectorUnitConfig cfg;
                cfg.kind = kind;
                cfg.t = t;
                cfg.lambda = 7;
                grid.mappings.push_back(cfg);
            }
        }
        grid.addFamilies(0, 7, {1, 3, 5, 7, 9, 11, 13, 15});
        grid.randomStarts = 63;
        sim::SweepOptions opts;
        opts.tier = TierPolicy::TheoryFirst;
        return sim::SweepEngine(opts).run(grid);
    }();
    return report;
}

/** The emit layer on its own: every outcome of emitReport() through
 *  one stream sink into a discarding stream. */
template <typename Sink>
void
emitRows(benchmark::State &state)
{
    const sim::SweepReport &report = emitReport();
    for (auto _ : state) {
        DiscardBuf buf;
        std::ostream os(&buf);
        Sink sink(os);
        report.stream(sink);
        benchmark::DoNotOptimize(buf.bytes());
    }
    state.SetItemsProcessed(state.iterations() * report.jobs());
}

void
BM_EmitCsv(benchmark::State &state)
{
    emitRows<sim::CsvStreamSink>(state);
}
BENCHMARK(BM_EmitCsv);

void
BM_EmitJson(benchmark::State &state)
{
    emitRows<sim::JsonStreamSink>(state);
}
BENCHMARK(BM_EmitJson);

} // namespace

BENCHMARK_MAIN();
