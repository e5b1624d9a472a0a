/**
 * @file
 * Tests for the batch scenario sweep engine (src/sim/).
 *
 * The engine's contract: a grid expands deterministically, every
 * job runs exactly once, and the merged SweepReport is identical at
 * any thread count — including grids with randomized start
 * addresses, whose randomness is consumed during (single-threaded)
 * expansion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "common/stats.h"
#include "common/stride.h"
#include "core/access_unit.h"
#include "sim/cli.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "sim/sweep_sink.h"
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

/** A small randomized grid covering every mapping kind, one and
 *  two ports, and lengths on both sides of the register length. */
ScenarioGrid
everyKindGrid(std::uint64_t seed)
{
    Rng rng(seed);
    ScenarioGrid grid;
    for (MemoryKind kind :
         {MemoryKind::Matched, MemoryKind::SimpleUnmatched,
          MemoryKind::Sectioned, MemoryKind::DynamicTuned,
          MemoryKind::PseudoRandom}) {
        VectorUnitConfig cfg;
        cfg.kind = kind;
        cfg.t = 2 + static_cast<unsigned>(rng.below(2));
        cfg.lambda = 2 * cfg.t + 1 + static_cast<unsigned>(rng.below(2));
        cfg.inputBuffers = 1 + static_cast<unsigned>(rng.below(3));
        cfg.outputBuffers = 1 + static_cast<unsigned>(rng.below(2));
        if (kind == MemoryKind::SimpleUnmatched) {
            cfg.mOverride =
                cfg.t + static_cast<unsigned>(
                            rng.below(cfg.lambda - 2 * cfg.t + 1));
        }
        if (kind == MemoryKind::DynamicTuned)
            cfg.dynamicTune = static_cast<unsigned>(rng.below(6));
        if (kind == MemoryKind::PseudoRandom)
            cfg.prandSeed = rng.next();
        grid.mappings.push_back(cfg);
    }
    for (unsigned x = 0; x <= 5; ++x)
        grid.strides.push_back(
            Stride::fromFamily(rng.oddBelow(64), x).value());
    // Full register, a short vector, and a chunked multi-register
    // length.
    grid.lengths = {0, 1 + rng.below(31), 512};
    grid.randomStarts = 1;
    grid.ports = {1, 2};
    grid.seed = rng.next();
    return grid;
}

SweepReport
runAt(const ScenarioGrid &grid, unsigned threads)
{
    SweepOptions opts;
    opts.threads = threads;
    return SweepEngine(opts).run(grid);
}

/** @p report's aggregates, replayed through a SummarySink. */
SummarySink
summaryOf(const SweepReport &report)
{
    SummarySink summary;
    report.stream(summary);
    return summary;
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
    const SummarySink s1 = summaryOf(r1);
    EXPECT_EQ(s1.conflictFreeJobs(), 0u);
    EXPECT_TRUE(s1.perMapping().empty());

    ScenarioGrid no_strides;
    no_strides.mappings.push_back(paperMatchedExample());
    const SweepReport r2 = SweepEngine().run(no_strides);
    EXPECT_EQ(r2.jobs(), 0u);
    // Labels survive so callers can still render a (empty) report.
    ASSERT_EQ(r2.mappingLabels.size(), 1u);
    EXPECT_EQ(summaryOf(r2).summaryTable().rows(), 1u);
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

TEST(SweepEngine, WorkerArenasAreWarmOnTheHotPath)
{
    const ScenarioGrid grid = everyKindGrid(0xB175EEDull);
    ASSERT_GE(grid.jobCount(), 200u);
    SweepRunStats stats;
    const SweepReport report = SweepEngine().run(grid, &stats);
    EXPECT_EQ(report.jobs(), grid.jobCount());
    EXPECT_EQ(stats.jobs, grid.jobCount());
    EXPECT_GT(stats.arenaAcquires, 0u);
    EXPECT_GT(stats.arenaReuses, 0u);
    EXPECT_GT(stats.arenaPeakBytes, 0u);
    EXPECT_GE(stats.arenaAcquires, stats.arenaReuses);

    // A theory-tier sweep materializes no delivery stream: its only
    // buffers are the planned request streams, one per port of
    // every access, chain and stencil loads included.
    ScenarioGrid programs = grid;
    programs.workloads = {Workload{WorkloadKind::Single},
                          Workload{WorkloadKind::Chain, 4},
                          Workload{WorkloadKind::Stencil, 4}};
    SweepOptions theory;
    theory.threads = 1;
    theory.tier = TierPolicy::TheoryFirst;
    SweepRunStats theoryStats;
    const SweepReport theoryReport =
        SweepEngine(theory).run(programs, &theoryStats);
    std::uint64_t planned = 0;
    for (const ScenarioOutcome &o : theoryReport.outcomes)
        planned += o.accesses * o.ports;
    EXPECT_EQ(theoryStats.arenaAcquires, planned);
}

TEST(SweepEngine, WorkerCountClampsToHardware)
{
    const ScenarioGrid grid = everyKindGrid(0xC1A3Dull);
    SweepOptions opts;
    opts.threads = 4096; // absurd request: must clamp, not spawn
    SweepRunStats stats;
    const SweepReport report = SweepEngine(opts).run(grid, &stats);
    EXPECT_EQ(report.jobs(), grid.jobCount());
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    EXPECT_LE(stats.threads, hw);
    EXPECT_GE(stats.threads, 1u);
}

TEST(SweepEngine, MultiThreadThroughputNoWorseThanSingle)
{
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 2)
        GTEST_SKIP() << "single-CPU host: scaling check needs >= 2 "
                        "hardware threads";

    const ScenarioGrid grid = everyKindGrid(0x5CA1EDull);
    auto timeRun = [&](unsigned threads) {
        SweepOptions opts;
        opts.threads = threads;
        const auto t0 = std::chrono::steady_clock::now();
        const SweepReport r = SweepEngine(opts).run(grid);
        const auto t1 = std::chrono::steady_clock::now();
        EXPECT_EQ(r.jobs(), grid.jobCount());
        return std::chrono::duration<double>(t1 - t0).count();
    };

    // Warm up allocators and caches, then take the best of three —
    // wall-clock scaling on shared CI hosts is noisy and the check
    // is a regression guard (threads must not make it slower), not
    // a speedup assertion.
    timeRun(1);
    double single = 1e9, multi = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
        single = std::min(single, timeRun(1));
        multi = std::min(multi, timeRun(hw));
    }
    EXPECT_LE(multi, single / 0.95 + 0.010)
        << "threads=" << hw << " took " << multi
        << "s vs threads=1 at " << single
        << "s — multi-thread sweep regressed below 0.95x";
}

TEST(SweepEngine, ReportIdenticalAtAnyThreadCount)
{
    // The 168 jobs split into chunks of 21, 10, 7 and 5 at 1 to 4
    // threads.
    const ScenarioGrid grid = smallGrid();
    const SweepReport base = runAt(grid, 1);
    EXPECT_EQ(base.jobs(), grid.jobCount());

    for (unsigned threads : {2u, 3u, 4u, 8u}) {
        const SweepReport r = runAt(grid, threads);
        EXPECT_EQ(r, base) << "thread count " << threads;
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
    const SummarySink summary = summaryOf(report);
    EXPECT_EQ(summary.conflictFreeJobs(), cf);
    EXPECT_EQ(summary.totalLatency(), latency);

    const auto per = summary.perMapping();
    ASSERT_EQ(per.size(), 2u);
    std::uint64_t jobs = 0;
    for (const auto &m : per)
        jobs += m.jobs;
    EXPECT_EQ(jobs, report.jobs());

    // One CSV line per job under a 26-column header.
    std::ostringstream csv;
    report.writeCsv(csv);
    std::istringstream lines(csv.str());
    std::string header;
    std::getline(lines, header);
    EXPECT_EQ(std::count(header.begin(), header.end(), ','), 25);
    std::size_t rows = 0;
    for (std::string row; std::getline(lines, row);)
        ++rows;
    EXPECT_EQ(rows, report.jobs());
}

/** The message expanding @p grid fails with, or "" if it expands.
 *  Call with a test::ScopedPanicThrow in scope. */
std::string
expandRejection(const ScenarioGrid &grid)
{
    try {
        grid.expand();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

/** Expects expanding @p grid to fail with a fatal (bad input)
 *  message that names each of @p words. */
void
expectFatalNaming(const ScenarioGrid &grid,
                  std::initializer_list<const char *> words)
{
    const std::string msg = expandRejection(grid);
    EXPECT_EQ(msg.rfind("fatal: ", 0), 0u) << msg;
    for (const char *w : words)
        EXPECT_NE(msg.find(w), std::string::npos) << msg;
}

/** A one-stride grid on cfva_sweep --kinds matched --t 2 --lambda 4
 *  --random-starts 0. */
ScenarioGrid
strideGrid(std::uint64_t stride)
{
    VectorUnitConfig matched;
    matched.kind = MemoryKind::Matched;
    matched.t = 2;
    matched.lambda = 4;
    ScenarioGrid grid;
    grid.mappings = {matched};
    grid.strides = {stride};
    return grid;
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

    // The stepper indexes stream positions in 32 bits; a longer
    // access is refused before any stream is allocated.
    ScenarioGrid too_long;
    too_long.mappings.push_back(paperMatchedExample());
    too_long.strides = {1};
    too_long.lengths = {ScenarioGrid::kMaxLength + 1};
    SweepOptions theory;
    theory.tier = TierPolicy::TheoryFirst;
    EXPECT_THROW(SweepEngine(theory).run(too_long),
                 std::runtime_error);
    // runToSink validates before it begins the sink (it expands the
    // jobs only after), so a rejected grid writes no CSV header.
    std::ostringstream csvOut;
    CsvStreamSink csv(csvOut);
    EXPECT_THROW(SweepEngine(theory).runToSink(too_long, csv),
                 std::runtime_error);
    EXPECT_EQ(csvOut.str(), "");

    // Every port plans base stride x mix multiplier (x 2 in Retune's
    // second phase) as a signed stride; one past 2^63 - 1 is refused
    // at expansion, naming the flags, not asserted inside a worker.

    // --strides 9223372036854775808
    expectFatalNaming(strideGrid(std::uint64_t{1} << 63),
                      {"--strides", "2^63 - 1"});

    // --families 62..62 --sigmas 3
    expectFatalNaming(strideGrid(std::uint64_t{3} << 62),
                      {"--families", "2^63 - 1"});

    // --strides 4611686018427387904 --ports 2 --port-mix 1,-3
    ScenarioGrid mixed = strideGrid(std::uint64_t{1} << 62);
    mixed.ports = {2};
    mixed.portMixes = {PortMix{{1, -3}}};
    expectFatalNaming(mixed, {"--strides", "--port-mix", "2^63 - 1"});

    // One port of the same mix only runs multiplier 1, which fits.
    mixed.ports = {1};
    EXPECT_EQ(expandRejection(mixed), "");

    // --strides 3074457345618258602 --workloads retune --ports 2
    // --port-mix 1,3: 3s fits, but the second phase plans 6s.
    ScenarioGrid retune = strideGrid(3074457345618258602ull);
    retune.workloads = {{WorkloadKind::Retune}};
    retune.ports = {2};
    retune.portMixes = {PortMix{{1, 3}}};
    expectFatalNaming(retune,
                      {"--workloads retune", "--port-mix", "2^63 - 1"});

    // --strides 4611686018427387904 --workloads stencil
    ScenarioGrid stencil = strideGrid(std::uint64_t{1} << 62);
    stencil.workloads = {{WorkloadKind::Stencil}};
    expectFatalNaming(stencil, {"--workloads stencil", "2^62 - 1"});

    // --workloads chain --exec-latency 4294967296: program totals
    // add the latency to cycle counts, so it is held to the
    // --lengths bound; the bound itself is accepted.
    ScenarioGrid chain = strideGrid(1);
    chain.workloads = {{WorkloadKind::Chain, ScenarioGrid::kMaxLength}};
    EXPECT_EQ(expandRejection(chain), "");
    chain.workloads.front().execLatency = ScenarioGrid::kMaxLength + 1;
    expectFatalNaming(chain, {"--exec-latency", "2^32 - 1"});

    // A descending port walks down to its base start + p x
    // --port-stagger (mod 2^64) from base + (L - 1)|S|; a block that
    // passes 2^64 - 1 is refused at expansion, naming the flags,
    // instead of asserting in the planner.  Ascending ports wrap.
    constexpr Addr kTop = ~Addr{0};
    const auto descending = [](std::uint64_t stride, PortMix mix) {
        ScenarioGrid grid; // --kinds matched --t 3 --random-starts 0
        grid.mappings = {paperMatchedExample()};
        grid.strides = {stride};
        grid.ports = {static_cast<unsigned>(
            std::max<std::size_t>(1, mix.multipliers.size()))};
        grid.portMixes = {std::move(mix)};
        return grid;
    };

    // --port-mix -1 --starts 18446744073709551615
    ScenarioGrid fromTop = descending(1, PortMix{{-1}});
    fromTop.starts = {kTop};
    expectFatalNaming(fromTop, {"--starts", "--port-stagger", "2^64 - 1"});

    // --ports 2 --port-mix 1,-1 --port-stagger 18446744073709551615
    ScenarioGrid staggered = descending(1, PortMix{{1, -1}});
    staggered.portStagger = kTop;
    expectFatalNaming(staggered,
                      {"--starts", "--port-stagger", "2^64 - 1"});

    // --ports 2 --port-mix 1,-1 --starts 18446744073709551615: port
    // 1's base wraps to 2^20 - 1, and its block fits.
    staggered.portStagger = ScenarioGrid{}.portStagger;
    staggered.starts = {kTop};
    EXPECT_EQ(expandRejection(staggered), "");

    // The stencil's third tap starts two strides up: from 2^64 - 129
    // the single access ends on 2^64 - 2, the tap past 2^64 - 1.
    ScenarioGrid tapped = descending(1, PortMix{{-1}});
    tapped.starts = {kTop - 128};
    EXPECT_EQ(expandRejection(tapped), "");
    tapped.workloads = {{WorkloadKind::Stencil}};
    expectFatalNaming(tapped, {"2 x 1 (stencil tap)", "--starts"});

    // Retune's second phase doubles the stride: 127 x 2^57 fits
    // below 2^64, 127 x 2^58 does not, from any start.
    ScenarioGrid doubled = descending(std::uint64_t{1} << 57,
                                      PortMix{{-1}});
    EXPECT_EQ(expandRejection(doubled), "");
    doubled.workloads = {{WorkloadKind::Retune}};
    expectFatalNaming(doubled, {"retune", "--strides"});

    // A random start may be any address below randomStartBound.
    ScenarioGrid drawn = descending(1, PortMix{{1, -1}});
    drawn.portStagger = kTop - drawn.randomStartBound;
    EXPECT_EQ(expandRejection(drawn), "");
    drawn.randomStarts = 1;
    expectFatalNaming(drawn, {"random start", "--port-stagger"});

    // 2^16 strides x 2^16 lengths x 2^32 starts is 2^64 jobs: the
    // count is refused, naming the axes, before anything prints or
    // expands it.  One start fewer fits.
    ScenarioGrid huge = strideGrid(1);
    huge.strides.assign(std::size_t{1} << 16, 1);
    huge.lengths.assign(std::size_t{1} << 16, 64);
    huge.randomStarts = ~0u;
    EXPECT_THROW(huge.jobCount(), std::runtime_error);
    expectFatalNaming(huge, {"2^64 - 1", "65536 strides", "65536 lengths",
                             "4294967296 starts", "--random-starts"});
    huge.randomStarts -= 1;
    EXPECT_EQ(huge.jobCount(), ~std::size_t{0} - 0xFFFFFFFFu);
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

TEST(SweepCli, SameFileCatchesAliasedOutputs)
{
    // cfva_sweep --csv P --json P, and cfva_merge with its output
    // among its inputs, would destroy data; both refuse on sameFile.
    const std::string dir = ::testing::TempDir();
    const std::string made = dir + "cfva_same_file_made.csv";
    const std::string fresh = dir + "cfva_same_file_fresh.csv";
    std::ofstream(made) << "job\n";
    std::remove(fresh.c_str());
    EXPECT_TRUE(sameFile(made, dir + "./cfva_same_file_made.csv"));
    EXPECT_TRUE(sameFile(fresh, dir + "./cfva_same_file_fresh.csv"));
    EXPECT_TRUE(sameFile("cfva_same_file.csv", "./cfva_same_file.csv"));
    EXPECT_FALSE(sameFile(made, fresh));
    EXPECT_TRUE(sameFile("-", "-"));
    EXPECT_FALSE(sameFile("-", made));
    // Many writers may share a character device.
    EXPECT_FALSE(sameFile("/dev/null", "/dev/null"));

    // Redirected to a file, stdout is that file, so "-" aliases it
    // under any name.
    std::fflush(stdout);
    const int saved = ::dup(STDOUT_FILENO);
    const int fd = ::open(made.c_str(), O_WRONLY);
    ::dup2(fd, STDOUT_FILENO);
    const bool aliased = sameFile("-", made) && sameFile(made, "-");
    ::dup2(saved, STDOUT_FILENO);
    ::close(fd);
    ::close(saved);
    EXPECT_TRUE(aliased);
    std::remove(made.c_str());
}

} // namespace
} // namespace cfva::sim
