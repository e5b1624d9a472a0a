/**
 * @file
 * Tests for the batch scenario sweep engine (src/sim/).
 *
 * The engine's contract: a grid expands deterministically, every
 * job runs exactly once, and the merged SweepReport is identical at
 * any thread count and stealing granularity — including grids with
 * randomized start addresses, whose randomness is consumed during
 * (single-threaded) expansion.
 */

#include <gtest/gtest.h>

#include "core/access_unit.h"
#include "sim/cli.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "test_util.h"
#include "theory/theory.h"

namespace cfva::sim {
namespace {

ScenarioGrid
smallGrid()
{
    ScenarioGrid grid;
    grid.mappings.push_back(paperMatchedExample());
    VectorUnitConfig sectioned = paperSectionedExample();
    grid.mappings.push_back(sectioned);
    grid.addFamilies(0, 6, {1, 3, 5});
    grid.starts = {0, 13};
    grid.randomStarts = 2;
    grid.seed = 0xC0FFEEull;
    return grid;
}

SweepReport
runAt(const ScenarioGrid &grid, unsigned threads, std::size_t grain)
{
    SweepOptions opts;
    opts.threads = threads;
    opts.grain = grain;
    return SweepEngine(opts).run(grid);
}

TEST(ScenarioGrid, JobCountMatchesExpansion)
{
    const ScenarioGrid grid = smallGrid();
    const auto jobs = grid.expand();
    EXPECT_EQ(jobs.size(), grid.jobCount());
    EXPECT_EQ(jobs.size(),
              2u * (7u * 3u) * 1u * (2u + 2u) * 1u);

    // Indices are dense and in expansion order.
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);
}

TEST(ScenarioGrid, ExpansionIsDeterministic)
{
    const ScenarioGrid grid = smallGrid();
    EXPECT_EQ(grid.expand(), grid.expand());

    // A different seed moves the randomized starts.
    ScenarioGrid reseeded = smallGrid();
    reseeded.seed ^= 1;
    EXPECT_NE(grid.expand(), reseeded.expand());
}

TEST(ScenarioGrid, LengthZeroResolvesToRegisterLength)
{
    ScenarioGrid grid;
    grid.mappings.push_back(paperMatchedExample()); // lambda = 7
    grid.strides = {1};
    grid.lengths = {0, 32};
    const auto jobs = grid.expand();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].length, 128u);
    EXPECT_EQ(jobs[1].length, 32u);
}

TEST(SweepEngine, EmptyGridYieldsEmptyReport)
{
    ScenarioGrid no_mappings;
    no_mappings.strides = {1, 2};
    const SweepReport r1 = SweepEngine().run(no_mappings);
    EXPECT_EQ(r1.jobs(), 0u);
    EXPECT_TRUE(r1.mappingLabels.empty());
    EXPECT_EQ(r1.conflictFreeJobs(), 0u);
    EXPECT_TRUE(r1.perMapping().empty());

    ScenarioGrid no_strides;
    no_strides.mappings.push_back(paperMatchedExample());
    const SweepReport r2 = SweepEngine().run(no_strides);
    EXPECT_EQ(r2.jobs(), 0u);
    // Labels survive so callers can still render a (empty) report.
    ASSERT_EQ(r2.mappingLabels.size(), 1u);
    EXPECT_EQ(r2.summaryTable().rows(), 1u);
}

TEST(SweepEngine, SingleJobMatchesDirectSimulation)
{
    ScenarioGrid grid;
    grid.mappings.push_back(paperMatchedExample());
    grid.strides = {24}; // family x = 3, inside the [0, 4] window
    grid.starts = {13};

    const SweepReport report = SweepEngine().run(grid);
    ASSERT_EQ(report.jobs(), 1u);
    const ScenarioOutcome &o = report.outcomes[0];

    const VectorAccessUnit unit(grid.mappings[0]);
    const AccessResult direct = unit.access(13, Stride(24), 128);

    EXPECT_EQ(o.latency, direct.latency);
    EXPECT_EQ(o.stallCycles, direct.stallCycles);
    EXPECT_EQ(o.conflictFree, direct.conflictFree);
    EXPECT_EQ(o.family, 3u);
    EXPECT_EQ(o.length, 128u);
    EXPECT_EQ(o.minLatency,
              theory::minimumLatency(128, 8));
    EXPECT_TRUE(o.inWindow);
}

TEST(SweepEngine, DefaultRunExecutesEveryJobWithoutKeying)
{
    // Keying every job costs more than the executions dedup saves on
    // every benchmark grid, so a default engine runs its whole slice
    // directly: no classes, no replays, no keying pre-pass.
    EXPECT_EQ(SweepOptions{}.dedup, DedupMode::Off);
    const ScenarioGrid grid = smallGrid();
    SweepRunStats stats;
    const SweepReport report = SweepEngine().run(grid, &stats);
    EXPECT_EQ(report.jobs(), grid.jobCount());
    EXPECT_EQ(stats.jobs, grid.jobCount());
    EXPECT_EQ(stats.dedupClasses, 0u);
    EXPECT_EQ(stats.dedupReplays, 0u);
    EXPECT_EQ(stats.dedupKeySeconds, 0.0);
}

TEST(SweepEngine, ReportIdenticalAtAnyThreadCount)
{
    const ScenarioGrid grid = smallGrid();
    const SweepReport base = runAt(grid, 1, 8);
    EXPECT_EQ(base.jobs(), grid.jobCount());

    for (unsigned threads : {2u, 3u, 8u}) {
        const SweepReport r = runAt(grid, threads, 8);
        EXPECT_EQ(r, base) << "thread count " << threads;
    }
}

TEST(SweepEngine, ReportIdenticalAtAnyGrain)
{
    const ScenarioGrid grid = smallGrid();
    const SweepReport base = runAt(grid, 4, 1);
    for (std::size_t grain : {3u, 16u, 1000u}) {
        const SweepReport r = runAt(grid, 4, grain);
        EXPECT_EQ(r, base) << "grain " << grain;
    }
}

TEST(SweepEngine, OutcomesMatchTheoryWindows)
{
    // Every in-window full-register access on the paper's matched
    // example must be measured conflict free, and vice versa for
    // fixed start 0 (the canonical distribution).
    ScenarioGrid grid;
    grid.mappings.push_back(paperMatchedExample());
    grid.addFamilies(0, 6, {1, 3});
    const SweepReport report = SweepEngine().run(grid);
    for (const auto &o : report.outcomes)
        EXPECT_EQ(o.conflictFree, o.inWindow)
            << "stride " << o.stride;
}

TEST(SweepEngine, MultiPortScenariosRun)
{
    ScenarioGrid grid;
    grid.mappings.push_back(paperSectionedExample());
    grid.strides = {1};
    grid.ports = {1, 2};
    const SweepReport report = SweepEngine().run(grid);
    ASSERT_EQ(report.jobs(), 2u);
    EXPECT_EQ(report.outcomes[0].ports, 1u);
    EXPECT_EQ(report.outcomes[1].ports, 2u);
    // Two staggered unit-stride streams load the shared modules at
    // least as heavily as one.
    EXPECT_GE(report.outcomes[1].latency,
              report.outcomes[0].latency);
    // The latency floor is bandwidth-aware, so efficiency stays a
    // true <= 1 ratio for every port count.  M = 64 >> P*T here,
    // so both floors reduce to L + T + 1.
    for (const auto &o : report.outcomes) {
        EXPECT_EQ(o.minLatency, 137u);
        EXPECT_LE(o.minLatency, o.latency);
    }
}

TEST(SweepEngine, ReportAggregatesAreConsistent)
{
    const ScenarioGrid grid = smallGrid();
    const SweepReport report = SweepEngine().run(grid);

    std::uint64_t cf = 0;
    Cycle latency = 0;
    for (const auto &o : report.outcomes) {
        cf += o.conflictFree ? 1 : 0;
        latency += o.latency;
    }
    EXPECT_EQ(report.conflictFreeJobs(), cf);
    EXPECT_EQ(report.totalLatency(), latency);

    const auto per = report.perMapping();
    ASSERT_EQ(per.size(), 2u);
    std::uint64_t jobs = 0;
    for (const auto &m : per)
        jobs += m.jobs;
    EXPECT_EQ(jobs, report.jobs());

    EXPECT_EQ(report.table().rows(), report.jobs());
    EXPECT_EQ(report.table().columns(), 26u);
}

TEST(SweepEngine, RejectsInvalidGrids)
{
    test::ScopedPanicThrow guard;

    ScenarioGrid zero_stride;
    zero_stride.mappings.push_back(paperMatchedExample());
    zero_stride.strides = {0};
    EXPECT_THROW(SweepEngine().run(zero_stride),
                 std::runtime_error);

    ScenarioGrid zero_ports;
    zero_ports.mappings.push_back(paperMatchedExample());
    zero_ports.strides = {1};
    zero_ports.ports = {0};
    EXPECT_THROW(SweepEngine().run(zero_ports),
                 std::runtime_error);
}

// The strict list parsers behind cfva_sweep's --kinds/--workloads/
// --tunes/--port-mix: empty items and silent duplicates used to
// inflate grids or mask typos; now they are hard errors naming the
// flag and the offending token.
TEST(SweepCli, SplitFlagListAcceptsCleanLists)
{
    EXPECT_EQ(splitFlagList("--kinds", "matched"),
              (std::vector<std::string>{"matched"}));
    EXPECT_EQ(splitFlagList("--kinds", "matched,sectioned,prand"),
              (std::vector<std::string>{"matched", "sectioned",
                                        "prand"}));
    // Duplicates are data when the caller says so (--port-mix
    // groups).
    EXPECT_EQ(splitFlagList("--port-mix", "1,1,2",
                            /*allowDuplicates=*/true),
              (std::vector<std::string>{"1", "1", "2"}));
}

TEST(SweepCli, SplitFlagListRejectsEmptyAndDuplicateItems)
{
    test::ScopedPanicThrow guard;
    EXPECT_THROW(splitFlagList("--kinds", ""), std::runtime_error);
    EXPECT_THROW(splitFlagList("--kinds", "matched,,matched"),
                 std::runtime_error);
    EXPECT_THROW(splitFlagList("--kinds", ",matched"),
                 std::runtime_error);
    EXPECT_THROW(splitFlagList("--kinds", "matched,"),
                 std::runtime_error);
    EXPECT_THROW(splitFlagList("--kinds", "matched,matched"),
                 std::runtime_error);
    EXPECT_THROW(splitFlagList("--tunes", "3,3"),
                 std::runtime_error);

    // The error names the flag and the offending token.
    try {
        splitFlagList("--workloads", "single,single");
        FAIL() << "duplicate item not rejected";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--workloads"), std::string::npos);
        EXPECT_NE(what.find("single"), std::string::npos);
    }
}

TEST(SweepCli, ParsePortMixFlagParsesGroups)
{
    const auto mixes = parsePortMixFlag("--port-mix", "1,3/1,-1");
    ASSERT_EQ(mixes.size(), 2u);
    EXPECT_EQ(mixes[0].multipliers,
              (std::vector<std::int64_t>{1, 3}));
    EXPECT_EQ(mixes[1].multipliers,
              (std::vector<std::int64_t>{1, -1}));

    // Duplicate multipliers inside one group are a meaningful
    // traffic pattern, not an error.
    const auto clones = parsePortMixFlag("--port-mix", "1,1,2");
    ASSERT_EQ(clones.size(), 1u);
    EXPECT_EQ(clones[0].multipliers,
              (std::vector<std::int64_t>{1, 1, 2}));
}

TEST(SweepCli, ParsePortMixFlagRejectsMalformedLists)
{
    test::ScopedPanicThrow guard;
    EXPECT_THROW(parsePortMixFlag("--port-mix", ""),
                 std::runtime_error);
    EXPECT_THROW(parsePortMixFlag("--port-mix", "1,3/"),
                 std::runtime_error);
    EXPECT_THROW(parsePortMixFlag("--port-mix", "1,,3"),
                 std::runtime_error);
    EXPECT_THROW(parsePortMixFlag("--port-mix", "1,3,"),
                 std::runtime_error);
    EXPECT_THROW(parsePortMixFlag("--port-mix", "0"),
                 std::runtime_error);
    EXPECT_THROW(parsePortMixFlag("--port-mix", "x"),
                 std::runtime_error);
    // Duplicate mixes ACROSS groups double the grid silently.
    EXPECT_THROW(parsePortMixFlag("--port-mix", "1,3/1,3"),
                 std::runtime_error);
}

} // namespace
} // namespace cfva::sim
