/**
 * @file
 * Differential tests for workload programs on the sweep grid.
 *
 * Three unification contracts, each enforced bit for bit:
 *
 *  1. Tier identity: chained/decoupled totals, retune relayout
 *     cycles, and every other workload outcome are identical under
 *     the stepped oracle and the evaluator (attribution columns
 *     aside) over a randomized grid of every mapping kind x every
 *     workload x 1-2 ports.
 *  2. vproc identity: the VectorProcessor — now running on the same
 *     execute()/BackendCache path — produces program timings
 *     that match the sweep's `single` and `chain` workload outcomes
 *     exactly (the refactor must not change program timings).
 *  3. Retune accounting: the Retune workload charges exactly the
 *     DynamicFieldMapping::displacedBy relayout the model defines,
 *     only for DynamicTuned mappings, and identically with and
 *     without the per-worker WorkloadUnits scratch.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/access_unit.h"
#include "core/chaining.h"
#include "mapping/dynamic.h"
#include "memsys/steady_state.h"
#include "sim/sweep_engine.h"
#include "sim/sweep_sink.h"
#include "test_util.h"
#include "vproc/processor.h"

namespace cfva::sim {
namespace {

Workload
makeWorkload(WorkloadKind kind, Cycle execLatency = 1,
             unsigned retunePeriod = 1)
{
    Workload wl;
    wl.kind = kind;
    wl.execLatency = execLatency;
    wl.retunePeriod = retunePeriod;
    return wl;
}

/** Every mapping kind x every workload x in/out-of-window strides
 *  x 1-2 ports x randomized starts. */
ScenarioGrid
differentialGrid()
{
    VectorUnitConfig matched;
    matched.kind = MemoryKind::Matched;
    matched.t = 2;
    matched.lambda = 5;

    VectorUnitConfig sectioned;
    sectioned.kind = MemoryKind::Sectioned;
    sectioned.t = 2;
    sectioned.lambda = 5;

    VectorUnitConfig simple;
    simple.kind = MemoryKind::SimpleUnmatched;
    simple.t = 2;
    simple.lambda = 5;
    simple.mOverride = 3;

    VectorUnitConfig dynamic;
    dynamic.kind = MemoryKind::DynamicTuned;
    dynamic.t = 2;
    dynamic.lambda = 5;
    dynamic.dynamicTune = 2;

    VectorUnitConfig prand;
    prand.kind = MemoryKind::PseudoRandom;
    prand.t = 2;
    prand.lambda = 5;

    ScenarioGrid grid;
    grid.mappings = {matched, sectioned, simple, dynamic, prand};
    grid.strides = {1, 2, 3, 4, 6, 8, 24};
    grid.lengths = {0, 8};
    grid.starts = {0};
    grid.randomStarts = 2;
    grid.ports = {1, 2};
    grid.portMixes = {PortMix{}, PortMix{{1, -3}}};
    grid.workloads = {makeWorkload(WorkloadKind::Single),
                      makeWorkload(WorkloadKind::Chain, 3),
                      makeWorkload(WorkloadKind::Retune, 1, 2),
                      makeWorkload(WorkloadKind::Stencil, 2)};
    grid.seed = 0xD1FFull;
    return grid;
}

/** Sweeps @p grid under both tiers and asserts the reports are
 *  bit-identical, attribution columns aside.  The theory run's
 *  counters go to @p theoryStats when given. */
void
expectTiersAgree(const ScenarioGrid &grid,
                 SweepRunStats *theoryStats = nullptr)
{
    SweepOptions theory;
    theory.tier = TierPolicy::TheoryFirst;

    const SweepReport oracle = SweepEngine().run(grid);
    const SweepReport fast = test::withoutAttribution(
        SweepEngine(theory).run(grid, theoryStats));

    ASSERT_EQ(oracle.jobs(), grid.jobCount());
    ASSERT_EQ(oracle.outcomes.size(), fast.outcomes.size());
    for (std::size_t i = 0; i < oracle.outcomes.size(); ++i) {
        EXPECT_EQ(oracle.outcomes[i], fast.outcomes[i])
            << "job " << i << " ("
            << oracle.mappingLabels[oracle.outcomes[i].mappingIndex]
            << ", workload "
            << oracle
                   .workloadLabels[oracle.outcomes[i].workloadIndex]
            << ", a1 " << oracle.outcomes[i].a1 << ")";
    }
    EXPECT_EQ(oracle, fast);
}

TEST(WorkloadDifferential, TiersBitIdenticalOnRandomizedGrid)
{
    expectTiersAgree(differentialGrid());
}

TEST(WorkloadDifferential, TiersBitIdenticalOnStartsNearTwoToThe64)
{
    // Every kind's moduleOf() on streams that start within 4096 of
    // 2^64, where the high address bits are set and the element
    // addresses wrap past 2^64.
    ScenarioGrid grid = differentialGrid();
    grid.starts = {~Addr{0}, ~Addr{0} - 4095};
    grid.randomStarts = 0;
    grid.lengths = {0, 63, 64, 200};
    expectTiersAgree(grid);
}

TEST(WorkloadDifferential, TiersBitIdenticalAroundTheMemoBound)
{
    // Lengths on both sides of the outcome memo's bound, at the
    // default buffer depths (q = 2, q' = 1) and at q = 1, q' = 2.
    // The evaluator answers the conflicted streams here with the
    // stepper's recurrence jump and with memo replays, so both must
    // match the oracle.
    ScenarioGrid grid;
    for (MemoryKind kind : {MemoryKind::Matched, MemoryKind::Sectioned,
                            MemoryKind::PseudoRandom}) {
        for (unsigned t : {2u, 3u}) {
            VectorUnitConfig cfg;
            cfg.kind = kind;
            cfg.t = t;
            cfg.lambda = 7;
            grid.mappings.push_back(cfg);
            cfg.inputBuffers = 1;
            cfg.outputBuffers = 2;
            grid.mappings.push_back(cfg);
        }
    }
    grid.addFamilies(0, 9, {1, 3});
    const std::uint64_t bound = OutcomeMemo::kMaxLen;
    grid.lengths = {bound - 1, bound, bound + 1};
    grid.randomStarts = 1;

    SweepRunStats stats;
    expectTiersAgree(grid, &stats);
    EXPECT_GT(stats.collapseHits, 0u);
    EXPECT_GT(stats.memoHits, 0u);
}

TEST(WorkloadDifferential, SingleWorkloadFieldsMatchLegacyShape)
{
    // The default workload must reproduce the pre-workload engine:
    // one access, no chain/retune columns.
    ScenarioGrid grid = differentialGrid();
    grid.workloads = {Workload{}};
    const SweepReport report = SweepEngine().run(grid);
    for (const auto &o : report.outcomes) {
        EXPECT_EQ(o.accesses, 1u);
        EXPECT_EQ(o.decoupledCycles, 0u);
        EXPECT_EQ(o.chainedCycles, 0u);
        EXPECT_FALSE(o.chainable);
        EXPECT_EQ(o.retunes, 0u);
        EXPECT_EQ(o.retuneCycles, 0u);
    }
}

/** Runs one scenario through runScenario without worker scratch. */
ScenarioOutcome
runDirect(const ScenarioGrid &grid, std::size_t job)
{
    const std::vector<Scenario> jobs = grid.expand();
    const Scenario &sc = jobs.at(job);
    const VectorAccessUnit unit(grid.mappings[sc.mappingIndex]);
    return SweepEngine::runScenario(grid, sc, unit);
}

TEST(WorkloadDifferential, WorkerScratchDoesNotChangeOutcomes)
{
    // The batch path (BackendCache + WorkloadUnits + arena) and the
    // bare direct path must agree on every scenario, including the
    // re-tuned variant units of Retune workloads.
    const ScenarioGrid grid = differentialGrid();
    const SweepReport report = SweepEngine().run(grid);
    // Sampling stride keeps the direct (uncached) pass fast.
    for (std::size_t i = 0; i < report.outcomes.size(); i += 7)
        EXPECT_EQ(report.outcomes[i], runDirect(grid, i));
}

/** One-load / load+multiply programs for the vproc identity
 *  checks. */
Program
loadOnly(std::uint64_t stride)
{
    return {vload(0, 0, stride)};
}

Program
loadThenMul(std::uint64_t stride)
{
    return {vload(0, 0, stride), vmuls(1, 0, 3)};
}

TEST(WorkloadDifferential, VprocMatchesSingleWorkloadOutcome)
{
    const VectorUnitConfig cfg = paperMatchedExample();
    for (std::uint64_t stride : {1ull, 12ull, 16ull, 32ull}) {
        ScenarioGrid grid;
        grid.mappings = {cfg};
        grid.strides = {stride};
        grid.randomStarts = 0;
        const SweepReport report = SweepEngine().run(grid);
        ASSERT_EQ(report.jobs(), 1u);
        const ScenarioOutcome &o = report.outcomes.front();

        VectorProcessor proc(cfg);
        proc.run(loadOnly(stride));
        EXPECT_EQ(proc.stats().cycles, o.latency) << "S=" << stride;
        EXPECT_EQ(proc.stats().memoryCycles, o.latency);
        EXPECT_EQ(proc.stats().stallCycles, o.stallCycles);
        EXPECT_EQ(proc.stats().conflictFreeAccesses,
                  o.conflictFree ? 1u : 0u);
    }
}

TEST(WorkloadDifferential, VprocMatchesChainWorkloadTotals)
{
    // Program totals: vproc with chaining off = the chain
    // workload's decoupled total; chaining on = the chained total
    // when the load chains, the decoupled total otherwise.  In- and
    // out-of-window strides.
    const VectorUnitConfig cfg = paperMatchedExample();
    for (std::uint64_t stride : {1ull, 12ull, 32ull}) {
        ScenarioGrid grid;
        grid.mappings = {cfg};
        grid.strides = {stride};
        grid.randomStarts = 0;
        grid.workloads = {makeWorkload(WorkloadKind::Chain)};
        const SweepReport report = SweepEngine().run(grid);
        ASSERT_EQ(report.jobs(), 1u);
        const ScenarioOutcome &o = report.outcomes.front();

        VectorProcessor decoupled(cfg);
        decoupled.run(loadThenMul(stride));
        EXPECT_EQ(decoupled.stats().cycles, o.decoupledCycles)
            << "S=" << stride;

        VectorProcessor chained(cfg);
        chained.enableChaining(true);
        chained.run(loadThenMul(stride));
        EXPECT_EQ(chained.stats().cycles,
                  o.chainable ? o.chainedCycles
                              : o.decoupledCycles)
            << "S=" << stride;
        EXPECT_EQ(chained.stats().chainedOps,
                  o.chainable ? 1u : 0u);
    }
}

TEST(WorkloadDifferential, RetuneChargesDisplacedByExactly)
{
    // Dynamic mapping tuned to p=0, base stride of family 2: the
    // scheme re-tunes 0 -> 2 before phase A and 2 -> 3 before
    // phase B, each charging ceil(2*T*displaced/M) cycles over the
    // access footprint.
    VectorUnitConfig dynamic;
    dynamic.kind = MemoryKind::DynamicTuned;
    dynamic.t = 2;
    dynamic.lambda = 4;
    dynamic.dynamicTune = 0;

    const std::uint64_t length = 16;
    ScenarioGrid grid;
    grid.mappings = {dynamic};
    grid.strides = {4}; // family 2
    grid.randomStarts = 0;
    grid.workloads = {makeWorkload(WorkloadKind::Retune, 1, 2)};
    const SweepReport report = SweepEngine().run(grid);
    ASSERT_EQ(report.jobs(), 1u);
    const ScenarioOutcome &o = report.outcomes.front();

    EXPECT_EQ(o.accesses, 4u); // 2 phases x period 2
    EXPECT_EQ(o.retunes, 2u);
    const Cycle expected =
        retuneRelayoutCycles(2, 0, 2, length, 4)
        + retuneRelayoutCycles(2, 2, 3, length, 4);
    EXPECT_EQ(o.retuneCycles, expected);
    EXPECT_GT(o.retuneCycles, 0u);

    // Every access runs at its tuned family's minimum latency, so
    // the whole gap between latency and the floor is relayout.
    EXPECT_TRUE(o.conflictFree);
    EXPECT_EQ(o.latency, o.minLatency + o.retuneCycles);
    EXPECT_LT(o.efficiency(), 1.0);

    // Static mappings never retune.
    ScenarioGrid staticGrid = grid;
    VectorUnitConfig matched;
    matched.kind = MemoryKind::Matched;
    matched.t = 2;
    matched.lambda = 4;
    staticGrid.mappings = {matched};
    const SweepReport staticReport =
        SweepEngine().run(staticGrid);
    EXPECT_EQ(staticReport.outcomes.front().retunes, 0u);
    EXPECT_EQ(staticReport.outcomes.front().retuneCycles, 0u);
}

TEST(WorkloadDifferential, RelayoutMemoKeyedByServiceTime)
{
    // Regression: two DynamicTuned mappings sharing m but differing
    // in t must not share a memoized relayout cost inside one
    // worker's scratch (the charge scales with T).
    VectorUnitConfig slow;
    slow.kind = MemoryKind::DynamicTuned;
    slow.t = 3;
    slow.lambda = 5;
    slow.mOverride = 3;
    slow.dynamicTune = 0;
    VectorUnitConfig fast = slow;
    fast.t = 2;

    ScenarioGrid grid;
    grid.mappings = {fast, slow};
    grid.strides = {4};
    grid.lengths = {8};
    grid.randomStarts = 0;
    grid.workloads = {makeWorkload(WorkloadKind::Retune)};

    SweepOptions oneWorker;
    oneWorker.threads = 1; // both mappings hit the same scratch
    const SweepReport report = SweepEngine(oneWorker).run(grid);
    ASSERT_EQ(report.jobs(), 2u);
    for (std::size_t i = 0; i < report.jobs(); ++i)
        EXPECT_EQ(report.outcomes[i], runDirect(grid, i)) << i;
    EXPECT_EQ(2 * report.outcomes[0].retuneCycles,
              report.outcomes[1].retuneCycles);
}

TEST(WorkloadDifferential, RelayoutCostModelSanity)
{
    // No movement, no charge; identical tunings are free.
    EXPECT_EQ(retuneRelayoutCycles(2, 3, 3, 1024, 4), 0u);
    // Moving everything costs ceil(2*T*V/M).
    const double f = cfva::DynamicFieldMapping::displacedBy(
        2, 0, 2, 1024);
    const auto displaced =
        static_cast<std::uint64_t>(f * 1024.0 + 0.5);
    EXPECT_EQ(retuneRelayoutCycles(2, 0, 2, 1024, 4),
              (2 * 4 * displaced + 3) / 4);
}

TEST(WorkloadDifferential, WorkloadLabelsAndValidation)
{
    EXPECT_EQ(Workload{}.label(), "single");
    EXPECT_EQ(makeWorkload(WorkloadKind::Chain, 4).label(),
              "chain:e4");
    EXPECT_EQ(makeWorkload(WorkloadKind::Retune, 1, 3).label(),
              "retune:p3");
    EXPECT_EQ(makeWorkload(WorkloadKind::Stencil, 2).label(),
              "stencil:e2");

    test::ScopedPanicThrow guard;
    Workload bad;
    bad.execLatency = 0;
    EXPECT_THROW(bad.validate(), std::runtime_error);
    bad = {};
    bad.retunePeriod = 0;
    EXPECT_THROW(bad.validate(), std::runtime_error);

    ScenarioGrid grid = differentialGrid();
    grid.workloads.clear();
    EXPECT_THROW(grid.expand(), std::runtime_error);
}

} // namespace
} // namespace cfva::sim
