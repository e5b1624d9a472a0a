/**
 * @file
 * Sweep-grid coverage for the prior-art mappings (ROADMAP "new
 * workloads" axis): the dynamic field scheme of [11]
 * (MemoryKind::DynamicTuned) and pseudo-random interleaving of [12]
 * (MemoryKind::PseudoRandom) as first-class grid configurations,
 * cross-checked between the oracle and the evaluator.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/access_unit.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "sim/sweep_sink.h"
#include "test_util.h"

namespace cfva::sim {
namespace {

VectorUnitConfig
dynamicConfig(unsigned p)
{
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::DynamicTuned;
    cfg.t = 3;
    cfg.lambda = 7;
    cfg.dynamicTune = p;
    return cfg;
}

VectorUnitConfig
prandConfig(std::uint64_t seed)
{
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::PseudoRandom;
    cfg.t = 3;
    cfg.lambda = 7;
    cfg.prandSeed = seed;
    return cfg;
}

ScenarioGrid
priorArtGrid()
{
    ScenarioGrid grid;
    grid.mappings.push_back(paperMatchedExample()); // reference
    grid.mappings.push_back(dynamicConfig(0));
    grid.mappings.push_back(dynamicConfig(2));
    grid.mappings.push_back(dynamicConfig(4));
    grid.mappings.push_back(prandConfig(0xD1CEull));
    grid.addFamilies(0, 6, {1, 3, 5});
    grid.starts = {0, 21};
    grid.randomStarts = 1;
    grid.seed = 0xDA7Aull;
    return grid;
}

TEST(SweepDynamic, GridExpandsAndValidates)
{
    const ScenarioGrid grid = priorArtGrid();
    EXPECT_EQ(grid.expand().size(), grid.jobCount());
    EXPECT_EQ(grid.jobCount(), 5u * 21u * 3u);
}

TEST(SweepDynamic, TunedFamilyIsConflictFreeOnTheGrid)
{
    const ScenarioGrid grid = priorArtGrid();
    const SweepReport report = SweepEngine().run(grid);
    ASSERT_EQ(report.jobs(), grid.jobCount());

    // mappingIndex 1..3 are dynamic tunings p = 0, 2, 4.
    const unsigned tune[] = {0, 0, 2, 4, 0};
    for (const auto &o : report.outcomes) {
        if (o.mappingIndex == 0 || o.mappingIndex == 4)
            continue;
        const unsigned p = tune[o.mappingIndex];
        if (o.family == p) {
            EXPECT_TRUE(o.conflictFree)
                << "tuned family " << p << " stride " << o.stride
                << " a1 " << o.a1 << " must be conflict free";
            EXPECT_TRUE(o.inWindow);
        } else {
            // Off-tuning families carry no guarantee and are
            // reported outside the window.
            EXPECT_FALSE(o.inWindow)
                << "family " << o.family << " vs tuning " << p;
        }
    }
}

TEST(SweepDynamic, StaticWindowBeatsOneTuningAcrossFamilies)
{
    // The paper's argument against [11]: one tuning serves one
    // family, while the static matched window serves [0, s].  Over
    // a families-0..6 grid the reference mapping must therefore
    // win on conflict-free count and on mean efficiency.
    const ScenarioGrid grid = priorArtGrid();
    const SweepReport report = SweepEngine().run(grid);
    SummarySink summary;
    report.stream(summary);
    const auto per = summary.perMapping();
    ASSERT_EQ(per.size(), 5u);
    for (std::size_t dyn = 1; dyn <= 3; ++dyn) {
        EXPECT_GT(per[0].conflictFree, per[dyn].conflictFree)
            << "matched window vs dynamic tuning #" << dyn;
        EXPECT_GT(per[0].meanEfficiency, per[dyn].meanEfficiency);
    }
}

TEST(SweepDynamic, PseudoRandomAvoidsPathologicalSerialization)
{
    // The design goal of [12]: no stride family degenerates to the
    // one-module worst case latency ~ L*T.  With the fixed seed the
    // sweep is deterministic, so a conservative bound is stable.
    const ScenarioGrid grid = priorArtGrid();
    const SweepReport report = SweepEngine().run(grid);
    const Cycle serialized = 128 * 8 + 8 + 1;
    for (const auto &o : report.outcomes) {
        if (o.mappingIndex != 4)
            continue;
        EXPECT_FALSE(o.inWindow); // no guarantees, ever
        EXPECT_GE(o.latency, o.minLatency);
        EXPECT_LT(o.latency, serialized / 2)
            << "prand stride " << o.stride << " serialized";
    }
}

TEST(SweepDynamic, TheoryTierAgreesOnPriorArtMappings)
{
    // The differential contract extends to the prior-art mappings:
    // the evaluator's report equals the oracle's outside the
    // attribution columns.
    const ScenarioGrid grid = priorArtGrid();
    SweepOptions theory;
    theory.tier = TierPolicy::TheoryFirst;
    const SweepReport oracle = SweepEngine().run(grid);
    const SweepReport evaluated = SweepEngine(theory).run(grid);
    EXPECT_EQ(test::withoutAttribution(evaluated), oracle);
}

TEST(SweepDynamic, ReportIdenticalAcrossThreadCounts)
{
    const ScenarioGrid grid = priorArtGrid();
    SweepOptions one;
    one.threads = 1;
    const SweepReport base = SweepEngine(one).run(grid);
    for (unsigned threads : {2u, 3u, 4u}) {
        SweepOptions opts;
        opts.threads = threads;
        EXPECT_EQ(SweepEngine(opts).run(grid), base) << threads;
    }
}

} // namespace
} // namespace cfva::sim
