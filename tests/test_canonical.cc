/**
 * @file
 * Tests for grid-level scenario canonicalization and dedup-aware
 * sweep execution (an opt-in library switch, off by default).
 *
 * Two layers of evidence:
 *
 *  1. Frozen canonical-key digests for the golden grid (the same
 *     grid test_sweep_golden.cc freezes the report schema on): any
 *     change to the key encoding shows up as a reviewable diff of
 *     tests/golden/canonical_keys.txt, regenerated like the other
 *     golden files with CFVA_UPDATE_GOLDEN=1.
 *  2. Byte-identity: a randomized grid over every mapping kind x
 *     workload x port count x mix streams identical CSV/JSON under
 *     DedupMode Off, On, and Audit, at one and several threads, with
 *     zero audit divergences.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/access_unit.h"
#include "sim/canonical.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "sim/sweep_sink.h"
#include "sim/workload.h"
#include "test_util.h"

#ifndef CFVA_TESTS_DIR
#error "CFVA_TESTS_DIR must point at the tests/ source directory"
#endif

namespace cfva::sim {
namespace {

/** The frozen grid — keep in sync with test_sweep_golden.cc so the
 *  key digests freeze alongside the report schema. */
ScenarioGrid
goldenGrid()
{
    VectorUnitConfig matched;
    matched.kind = MemoryKind::Matched;
    matched.t = 2;
    matched.lambda = 4;

    VectorUnitConfig sectioned;
    sectioned.kind = MemoryKind::Sectioned;
    sectioned.t = 2;
    sectioned.lambda = 4;

    VectorUnitConfig dynamic;
    dynamic.kind = MemoryKind::DynamicTuned;
    dynamic.t = 2;
    dynamic.lambda = 4;
    dynamic.dynamicTune = 0;

    ScenarioGrid grid;
    grid.mappings = {matched, sectioned, dynamic};
    grid.strides = {1, 2, 6};
    grid.lengths = {0, 8};
    grid.starts = {0, 5};
    grid.randomStarts = 0;
    grid.ports = {1, 2};
    grid.portMixes = {PortMix{}, PortMix{{1, -3}}};
    Workload chain;
    chain.kind = WorkloadKind::Chain;
    chain.execLatency = 2;
    Workload retune;
    retune.kind = WorkloadKind::Retune;
    retune.retunePeriod = 2;
    Workload stencil;
    stencil.kind = WorkloadKind::Stencil;
    grid.workloads = {Workload{}, chain, retune, stencil};
    return grid;
}

/** A randomized-start grid covering every mapping kind, workload
 *  program, port count, and mix shape. */
ScenarioGrid
richGrid()
{
    VectorUnitConfig matched;
    matched.kind = MemoryKind::Matched;
    matched.t = 2;
    matched.lambda = 5;

    VectorUnitConfig sectioned;
    sectioned.kind = MemoryKind::Sectioned;
    sectioned.t = 2;
    sectioned.lambda = 4;

    VectorUnitConfig simple;
    simple.kind = MemoryKind::SimpleUnmatched;
    simple.t = 2;
    simple.lambda = 5;
    simple.mOverride = 3; // in [t, lambda - t]

    VectorUnitConfig dynamic;
    dynamic.kind = MemoryKind::DynamicTuned;
    dynamic.t = 2;
    dynamic.lambda = 4;
    dynamic.dynamicTune = 1;

    VectorUnitConfig prand;
    prand.kind = MemoryKind::PseudoRandom;
    prand.t = 2;
    prand.lambda = 4;
    prand.prandSeed = 0xFEEDFACEull;

    ScenarioGrid grid;
    grid.mappings = {matched, sectioned, simple, dynamic, prand};
    grid.strides = {1, 2, 3, 6, 8};
    grid.lengths = {0, 7};
    grid.starts = {0, 3};
    grid.randomStarts = 2;
    grid.ports = {1, 2};
    grid.portMixes = {PortMix{}, PortMix{{1, -3}}};
    Workload chain;
    chain.kind = WorkloadKind::Chain;
    chain.execLatency = 2;
    Workload retune;
    retune.kind = WorkloadKind::Retune;
    retune.retunePeriod = 2;
    Workload stencil;
    stencil.kind = WorkloadKind::Stencil;
    grid.workloads = {Workload{}, chain, retune, stencil};
    grid.seed = 0xCA11AB1Eull;
    return grid;
}

/** Canonical keys of every job of @p grid, in job order. */
std::vector<CanonicalKey>
keysOf(const ScenarioGrid &grid,
       TierPolicy tier = TierPolicy::SimulateAlways)
{
    const std::vector<Scenario> jobs = grid.expand();
    std::vector<std::unique_ptr<VectorAccessUnit>> units(
        grid.mappings.size());
    WorkloadUnits workloads;
    CanonicalScratch scratch;
    DeliveryArena arena;
    std::vector<CanonicalKey> keys;
    keys.reserve(jobs.size());
    for (const Scenario &sc : jobs) {
        auto &slot = units[sc.mappingIndex];
        if (!slot) {
            slot = std::make_unique<VectorAccessUnit>(
                grid.mappings[sc.mappingIndex]);
        }
        keys.push_back(canonicalKey(grid, sc, *slot, &workloads,
                                    tier, &arena, scratch));
    }
    return keys;
}

std::string
goldenPath(const std::string &name)
{
    return std::string(CFVA_TESTS_DIR) + "/golden/" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open golden file " << path
                    << " (regenerate with CFVA_UPDATE_GOLDEN=1)";
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
checkGolden(const std::string &name, const std::string &actual)
{
    const std::string path = goldenPath(name);
    if (std::getenv("CFVA_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden " << name << " regenerated";
    }
    const std::string golden = readFile(path);
    if (actual == golden)
        return;
    std::istringstream a(actual), g(golden);
    std::string la, lg;
    std::size_t line = 1;
    while (std::getline(a, la) && std::getline(g, lg)) {
        ASSERT_EQ(la, lg)
            << path << " diverges at line " << line
            << " (regenerate with CFVA_UPDATE_GOLDEN=1 if the "
               "encoding change is intentional)";
        ++line;
    }
    FAIL() << path << ": line count differs from golden";
}

/** Runs the grid streaming into CSV+JSON strings. */
struct Streamed
{
    std::string csv;
    std::string json;
    SweepRunStats stats;
};

Streamed
streamRun(const ScenarioGrid &grid, const SweepOptions &opts)
{
    std::ostringstream csv, json;
    CsvStreamSink csvSink(csv);
    JsonStreamSink jsonSink(json);
    TeeSink tee({&csvSink, &jsonSink});
    Streamed out;
    SweepEngine(opts).runToSink(grid, tee, &out.stats);
    out.csv = csv.str();
    out.json = json.str();
    return out;
}

TEST(Canonical, GoldenKeyDigestsAreFrozen)
{
    // One digest line per job of the golden grid, in job order:
    // changes to the canonical-key encoding must be as deliberate
    // as a report schema change.
    const std::vector<CanonicalKey> keys = keysOf(goldenGrid());
    ASSERT_FALSE(keys.empty());
    std::ostringstream os;
    for (const CanonicalKey &k : keys)
        os << k.digest() << "\n";
    checkGolden("canonical_keys.txt", os.str());
}

TEST(Canonical, DigestIs32HexDigitsAndMatchesWords)
{
    const std::vector<CanonicalKey> keys = keysOf(goldenGrid());
    for (const CanonicalKey &k : keys) {
        ASSERT_EQ(k.digest().size(), 32u);
        ASSERT_EQ(k.digest().find_first_not_of("0123456789abcdef"),
                  std::string::npos);
        ASSERT_FALSE(k.words.empty());
    }
    // Recomputing the keys yields identical encodings: the key is a
    // pure function of the scenario.
    const std::vector<CanonicalKey> again = keysOf(goldenGrid());
    EXPECT_EQ(again, keys);
}

TEST(Canonical, TierIsPartOfOutcomeIdentity)
{
    // The tier changes the report's attribution columns, so equal
    // scenarios evaluated under different tiers must not share a
    // class.
    const std::vector<CanonicalKey> sim = keysOf(goldenGrid());
    const std::vector<CanonicalKey> theory =
        keysOf(goldenGrid(), TierPolicy::TheoryFirst);
    ASSERT_EQ(sim.size(), theory.size());
    for (std::size_t i = 0; i < sim.size(); ++i)
        EXPECT_NE(sim[i], theory[i]) << "job " << i;
}

TEST(Canonical, StrideEntersTheKeyAsItsFamily)
{
    // The key encodes the stride FAMILY, not the raw value: every
    // outcome column either is rewritten per member by
    // replayOutcome (stride, family) or depends on the stride only
    // through the family or the planned module sequences.  On
    // matched t=2 lambda=7 the families above the window (x >= 6)
    // plan in order and their module sequences are
    // order-isomorphic across sigma, so sigma=1 and sigma=3 of
    // family 6 must share a class — while family 6 and family 7 at
    // sigma=1 must not (different inWindow/conflict behavior).
    VectorUnitConfig matched;
    matched.kind = MemoryKind::Matched;
    matched.t = 2;
    matched.lambda = 7;

    ScenarioGrid grid;
    grid.mappings = {matched};
    grid.strides = {1ull << 6, 3ull << 6, 1ull << 7};
    grid.randomStarts = 0;

    const std::vector<CanonicalKey> keys = keysOf(grid);
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0], keys[1])
        << "sigma must not split an out-of-window family's class";
    EXPECT_NE(keys[0], keys[2])
        << "the family itself is outcome identity";
}

TEST(CanonicalDedup, OnOffAuditStreamByteIdentical)
{
    const ScenarioGrid grid = richGrid();
    for (unsigned threads : {1u, 3u}) {
        SweepOptions off;
        off.threads = threads;
        off.dedup = DedupMode::Off;
        SweepOptions on = off;
        on.dedup = DedupMode::On;
        SweepOptions audit = off;
        audit.dedup = DedupMode::Audit;

        const Streamed base = streamRun(grid, off);
        const Streamed deduped = streamRun(grid, on);
        const Streamed audited = streamRun(grid, audit);

        EXPECT_EQ(deduped.csv, base.csv) << "threads " << threads;
        EXPECT_EQ(deduped.json, base.json) << "threads " << threads;
        EXPECT_EQ(audited.csv, base.csv) << "threads " << threads;
        EXPECT_EQ(audited.json, base.json) << "threads " << threads;

        // Off runs the historical path: no classes, no replays.
        EXPECT_EQ(base.stats.dedupClasses, 0u);
        EXPECT_EQ(base.stats.dedupReplays, 0u);
        // On executes one representative per class; the grid's
        // shifted starts guarantee real sharing.
        EXPECT_GT(deduped.stats.dedupClasses, 0u);
        EXPECT_GT(deduped.stats.dedupReplays, 0u);
        EXPECT_EQ(deduped.stats.dedupClasses
                      + deduped.stats.dedupReplays,
                  deduped.stats.jobs);
        // Audit executes every member and reports zero divergence.
        EXPECT_EQ(audited.stats.dedupReplays, 0u);
        EXPECT_EQ(audited.stats.dedupClasses,
                  deduped.stats.dedupClasses);
        EXPECT_EQ(audited.stats.dedupAuditDivergences, 0u);
        EXPECT_EQ(deduped.stats.dedupAuditDivergences, 0u);
    }
}

TEST(CanonicalDedup, MaterializedReportsEqualUnderBothTiers)
{
    const ScenarioGrid grid = richGrid();
    for (TierPolicy tier :
         {TierPolicy::SimulateAlways, TierPolicy::TheoryFirst}) {
        SweepOptions off;
        off.tier = tier;
        off.dedup = DedupMode::Off;
        SweepOptions on;
        on.tier = tier;
        on.dedup = DedupMode::On;
        const SweepReport base = SweepEngine(off).run(grid);
        const SweepReport deduped = SweepEngine(on).run(grid);
        EXPECT_EQ(deduped, base) << "tier " << to_string(tier);
    }
}

TEST(CanonicalDedup, ShardSlicesDedupIndependently)
{
    // Dedup classes form per shard slice; each deduped shard's
    // stream must stay byte-identical to the dedup-off shard
    // (which test_sweep_stream.cc proves merges back to the whole).
    const ScenarioGrid grid = richGrid();
    for (std::size_t i = 0; i < 3; ++i) {
        SweepOptions on;
        on.dedup = DedupMode::On;
        on.shard = {i, 3};
        SweepOptions off;
        off.dedup = DedupMode::Off;
        off.shard = {i, 3};
        const Streamed deduped = streamRun(grid, on);
        const Streamed base = streamRun(grid, off);
        EXPECT_EQ(deduped.csv, base.csv) << "shard " << i;
        EXPECT_EQ(deduped.json, base.json) << "shard " << i;
        EXPECT_GT(deduped.stats.dedupClasses, 0u) << "shard " << i;
    }
}

} // namespace
} // namespace cfva::sim
