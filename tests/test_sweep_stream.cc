/**
 * @file
 * Tests for the streaming, shardable sweep pipeline.
 *
 * The pipeline's contract, each clause enforced here:
 *
 *  - Streamed CSV/JSON output is byte-identical to the
 *    materialized SweepReport::writeCsv/writeJson at any thread
 *    count, tier, and shard split.
 *  - ShardSpec slices partition the job list into disjoint,
 *    contiguous, covering ranges, at any shard count, and the
 *    merged output of N shards (via sim/merge.h — the exact code
 *    cfva_merge runs) is bit-identical to the unsharded run for N
 *    in {1, 2, 3, 5}.
 *  - Each worker gets about 8 chunks, of at least 1 and at most
 *    256 jobs.
 *  - The per-worker backend cache produces identical outcomes to
 *    per-access backend construction, and its hit/miss counters
 *    add up.
 *  - The outcomes in flight are bounded by the flush window
 *    (O(threads x grain)), not by the job count.
 *  - SummarySink folds the per-mapping and per-workload aggregates.
 *  - The sinks' to_chars rows print exactly what iostreams print,
 *    at edge values the golden grid never reaches.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/access_unit.h"
#include "memsys/backend_cache.h"
#include "sim/merge.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "sim/sweep_sink.h"
#include "test_util.h"

namespace cfva::sim {
namespace {

/** A grid with every axis the report schema covers: two mappings,
 *  strides in and out of window, multi-port rows, random starts. */
ScenarioGrid
pipelineGrid()
{
    VectorUnitConfig matched;
    matched.kind = MemoryKind::Matched;
    matched.t = 2;
    matched.lambda = 4;

    VectorUnitConfig sectioned;
    sectioned.kind = MemoryKind::Sectioned;
    sectioned.t = 2;
    sectioned.lambda = 4;

    ScenarioGrid grid;
    grid.mappings = {matched, sectioned};
    grid.strides = {1, 2, 4, 6, 8};
    grid.lengths = {0, 8};
    grid.starts = {0, 5};
    grid.randomStarts = 1;
    grid.ports = {1, 2};
    grid.portMixes = {PortMix{}, PortMix{{1, -3}}};
    grid.seed = 0xBEEFull;
    return grid;
}

std::string
csvOf(const SweepReport &report)
{
    std::ostringstream os;
    report.writeCsv(os);
    return os.str();
}

std::string
jsonOf(const SweepReport &report)
{
    std::ostringstream os;
    report.writeJson(os);
    return os.str();
}

/** Runs the grid streaming into CSV+JSON strings. */
struct Streamed
{
    std::string csv;
    std::string json;
    SweepRunStats stats;
};

Streamed
streamRun(const ScenarioGrid &grid, SweepOptions opts)
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

TEST(SweepStream, ByteIdenticalToMaterializedAtAnyConfig)
{
    const ScenarioGrid grid = pipelineGrid();
    for (TierPolicy tier :
         {TierPolicy::SimulateAlways, TierPolicy::TheoryFirst}) {
        SweepOptions base;
        base.tier = tier;
        const SweepReport report = SweepEngine(base).run(grid);
        const std::string wantCsv = csvOf(report);
        const std::string wantJson = jsonOf(report);

        // Each thread count sizes its chunks differently.
        for (unsigned threads : {1u, 2u, 3u, 4u, 5u}) {
            SweepOptions opts;
            opts.tier = tier;
            opts.threads = threads;
            const Streamed got = streamRun(grid, opts);
            EXPECT_EQ(got.csv, wantCsv)
                << "tier " << to_string(tier) << " threads " << threads;
            EXPECT_EQ(got.json, wantJson)
                << "tier " << to_string(tier) << " threads " << threads;
        }
    }
}

TEST(SweepStream, ShardSlicesPartitionTheJobs)
{
    for (std::size_t jobs : {0u, 1u, 7u, 240u}) {
        for (std::size_t count : {1u, 2u, 3u, 5u, 9u}) {
            std::size_t expectFirst = 0;
            for (std::size_t i = 0; i < count; ++i) {
                const ShardSpec shard{i, count};
                shard.validate();
                const auto [first, last] = shard.sliceOf(jobs);
                EXPECT_EQ(first, expectFirst)
                    << "shard " << i << "/" << count << " over "
                    << jobs;
                EXPECT_LE(first, last);
                expectFirst = last;
            }
            EXPECT_EQ(expectFirst, jobs);
        }
    }

    // Past 2^32 shards the product i * J overflowed 64 bits and
    // shards lost their jobs; the last of N must hold the last job.
    using Slice = std::pair<std::size_t, std::size_t>;
    constexpr std::size_t jobs = 1024;
    for (std::size_t count : {std::size_t{1} << 54, ~std::size_t{0}}) {
        EXPECT_EQ(ShardSpec({0, count}).sliceOf(jobs), Slice(0, 0))
            << "N = " << count;
        EXPECT_EQ(ShardSpec({count - 1, count}).sliceOf(jobs),
                  Slice(jobs - 1, jobs))
            << "N = " << count;
    }
}

TEST(SweepStream, MergedShardsBitIdenticalToUnsharded)
{
    const ScenarioGrid grid = pipelineGrid();
    for (TierPolicy tier :
         {TierPolicy::SimulateAlways, TierPolicy::TheoryFirst}) {
        SweepOptions base;
        base.tier = tier;
        const SweepReport full = SweepEngine(base).run(grid);
        const std::string wantCsv = csvOf(full);
        const std::string wantJson = jsonOf(full);

        for (std::size_t count : {1u, 2u, 3u, 5u}) {
            std::vector<std::string> csvShards, jsonShards;
            std::size_t jobsSeen = 0;
            for (std::size_t i = 0; i < count; ++i) {
                SweepOptions opts;
                opts.tier = tier;
                opts.threads = 2;
                opts.shard = {i, count};
                const Streamed s = streamRun(grid, opts);
                csvShards.push_back(s.csv);
                jsonShards.push_back(s.json);
                jobsSeen += s.stats.jobs;
            }
            EXPECT_EQ(jobsSeen, full.jobs());

            std::vector<std::istringstream> csvIn, jsonIn;
            std::vector<std::istream *> csvPtrs, jsonPtrs;
            for (std::size_t i = 0; i < count; ++i) {
                csvIn.emplace_back(csvShards[i]);
                jsonIn.emplace_back(jsonShards[i]);
            }
            for (std::size_t i = 0; i < count; ++i) {
                csvPtrs.push_back(&csvIn[i]);
                jsonPtrs.push_back(&jsonIn[i]);
            }
            std::ostringstream mergedCsv, mergedJson;
            mergeCsv(mergedCsv, csvPtrs);
            mergeJson(mergedJson, jsonPtrs);
            EXPECT_EQ(mergedCsv.str(), wantCsv)
                << "tier " << to_string(tier) << " N=" << count;
            EXPECT_EQ(mergedJson.str(), wantJson)
                << "tier " << to_string(tier) << " N=" << count;
        }
    }
}

TEST(SweepStream, ShardedMaterializedReportsConcatenate)
{
    // The materialized path honors the shard too: outcomes carry
    // global job indices and concatenating shard reports in order
    // reproduces the full outcome list.
    const ScenarioGrid grid = pipelineGrid();
    const SweepReport full = SweepEngine().run(grid);
    std::vector<ScenarioOutcome> stitched;
    for (std::size_t i = 0; i < 3; ++i) {
        SweepOptions opts;
        opts.shard = {i, 3};
        const SweepReport part = SweepEngine(opts).run(grid);
        stitched.insert(stitched.end(), part.outcomes.begin(),
                        part.outcomes.end());
    }
    EXPECT_EQ(stitched, full.outcomes);
}

TEST(SweepStream, AdaptiveGrainTargetsChunksPerThread)
{
    const auto statsOf = [](const ScenarioGrid &grid, unsigned threads) {
        SweepOptions opts;
        opts.threads = threads;
        SweepRunStats stats;
        SweepEngine(opts).run(grid, &stats);
        return stats;
    };
    // 240 jobs: 240 / (8 x threads) jobs per chunk.  Hosts with
    // fewer cores clamp the thread count and skip the larger rows.
    const ScenarioGrid grid = pipelineGrid();
    const std::size_t want[] = {0, 30, 15, 10, 7};
    for (unsigned threads : {1u, 2u, 3u, 4u}) {
        const SweepRunStats stats = statsOf(grid, threads);
        if (stats.threads == threads) {
            EXPECT_EQ(stats.grain, want[threads]) << threads;
            EXPECT_EQ(stats.chunks, (240 + want[threads] - 1)
                                        / want[threads]);
        }
    }

    // Tiny grids floor at 1 job per chunk.
    ScenarioGrid tiny;
    tiny.mappings.push_back(paperMatchedExample());
    tiny.strides = {1, 2, 3};
    EXPECT_EQ(statsOf(tiny, 1).grain, 1u);

    // Huge grids clamp at 256 so the flush window stays flat.
    ScenarioGrid huge = tiny;
    huge.strides.clear();
    for (std::uint64_t s = 1; s <= 2100; ++s)
        huge.strides.push_back(s);
    huge.lengths = {1};
    EXPECT_EQ(statsOf(huge, 1).grain, 256u);
}

TEST(SweepStream, RejectsImpossibleShards)
{
    test::ScopedPanicThrow guard;
    EXPECT_THROW(ShardSpec({0, 0}).validate(), std::runtime_error);
    EXPECT_THROW(ShardSpec({2, 2}).validate(), std::runtime_error);
    SweepOptions opts;
    opts.shard = {5, 3};
    EXPECT_THROW(SweepEngine{opts}, std::runtime_error);
}

TEST(SweepStream, BackendCacheMatchesFreshBackends)
{
    const ScenarioGrid grid = pipelineGrid();
    const auto jobs = grid.expand();
    BackendCache cache;
    std::vector<std::unique_ptr<VectorAccessUnit>> units;
    for (const auto &cfg : grid.mappings)
        units.push_back(std::make_unique<VectorAccessUnit>(cfg));
    for (const auto &sc : jobs) {
        const VectorAccessUnit &unit = *units[sc.mappingIndex];
        const ScenarioOutcome fresh =
            SweepEngine::runScenario(grid, sc, unit);
        const ScenarioOutcome cached = SweepEngine::runScenario(
            grid, sc, unit, nullptr, &cache);
        EXPECT_EQ(fresh, cached) << "job " << sc.index;
    }
    // One backend per mapping (the oracle), everything else hits.
    EXPECT_EQ(cache.stats().misses, grid.mappings.size());
    EXPECT_EQ(cache.stats().hits + cache.stats().misses,
              jobs.size());
    EXPECT_EQ(cache.size(), grid.mappings.size());
}

TEST(SweepStream, RunStatsCountCacheTraffic)
{
    const ScenarioGrid grid = pipelineGrid();
    SweepOptions opts;
    opts.threads = 2;
    SweepRunStats stats;
    const SweepReport report = SweepEngine(opts).run(grid, &stats);
    EXPECT_EQ(stats.jobs, report.jobs());
    // Every scenario takes exactly one backend lookup; misses are
    // bounded by (workers x mappings).
    EXPECT_EQ(stats.backendCacheHits + stats.backendCacheMisses,
              report.jobs());
    EXPECT_GE(stats.backendCacheMisses, grid.mappings.size());
    EXPECT_LE(stats.backendCacheMisses,
              stats.threads * grid.mappings.size());
}

TEST(SweepStream, PendingOutcomesBoundedByWindow)
{
    ScenarioGrid grid = pipelineGrid();
    grid.randomStarts = 3; // more jobs, more reordering pressure
    SweepOptions opts;
    opts.threads = 4;
    std::ostringstream os;
    CsvStreamSink sink(os);
    SweepRunStats stats;
    SweepEngine(opts).runToSink(grid, sink, &stats);
    EXPECT_GT(stats.jobs, stats.pendingWindow)
        << "grid too small to exercise the window";
    EXPECT_EQ(stats.pendingWindow,
              4 * stats.threads * stats.grain);
    EXPECT_LE(stats.peakPendingOutcomes,
              stats.pendingWindow + stats.grain);
}

/** One CSV row of @p o as iostreams print it. */
std::string
iostreamCsvRow(const SweepReport &r, const ScenarioOutcome &o)
{
    std::ostringstream os;
    os << o.index << ',' << r.mappingLabels[o.mappingIndex] << ','
       << o.stride << ',' << o.family << ',' << o.length << ','
       << o.a1 << ',' << o.ports << ','
       << r.portMixLabels[o.portMixIndex] << ','
       << r.workloadLabels[o.workloadIndex] << ',' << o.latency << ','
       << o.minLatency << ',' << o.stallCycles << ','
       << (o.conflictFree ? 1 : 0) << ',' << (o.inWindow ? 1 : 0)
       << ',' << std::fixed << std::setprecision(4) << o.efficiency()
       << ',' << o.accesses << ',' << o.decoupledCycles << ','
       << o.chainedCycles << ',' << o.chainSaved() << ','
       << (o.chainable ? 1 : 0) << ',' << o.retunes << ','
       << o.retuneCycles << ',' << o.tierLabel() << ','
       << o.theoryClaimed << ',' << o.theoryFallback << ','
       << to_string(o.fallbackReason) << "\n";
    return os.str();
}

/** One JSON object of @p o as iostreams print it. */
std::string
iostreamJsonRow(const SweepReport &r, const ScenarioOutcome &o)
{
    const auto flag = [](bool b) { return b ? "true" : "false"; };
    std::ostringstream os;
    os << "  {\"job\": " << o.index << ", \"mapping\": \""
       << r.mappingLabels[o.mappingIndex] << "\", \"stride\": "
       << o.stride << ", \"family\": " << o.family
       << ", \"length\": " << o.length << ", \"a1\": " << o.a1
       << ", \"ports\": " << o.ports << ", \"port_mix\": \""
       << r.portMixLabels[o.portMixIndex] << "\", \"workload\": \""
       << r.workloadLabels[o.workloadIndex] << "\", \"latency\": "
       << o.latency << ", \"min_latency\": " << o.minLatency
       << ", \"stalls\": " << o.stallCycles << ", \"conflict_free\": "
       << flag(o.conflictFree) << ", \"in_window\": "
       << flag(o.inWindow) << ", \"efficiency\": " << std::fixed
       << std::setprecision(6) << o.efficiency()
       << ", \"accesses\": " << o.accesses << ", \"decoupled\": "
       << o.decoupledCycles << ", \"chained\": " << o.chainedCycles
       << ", \"chain_saved\": " << o.chainSaved()
       << ", \"chainable\": " << flag(o.chainable)
       << ", \"retunes\": " << o.retunes << ", \"retune_cycles\": "
       << o.retuneCycles << ", \"tier\": \"" << o.tierLabel()
       << "\", \"theory_claimed\": " << o.theoryClaimed
       << ", \"theory_fallback\": " << o.theoryFallback
       << ", \"fallback_reason\": \"" << to_string(o.fallbackReason)
       << "\"}";
    return os.str();
}

TEST(SweepStream, RowsMatchIostreamsAtEdgeValues)
{
    // Values the golden grid never reaches: 64-bit maxima, a zero
    // latency, efficiencies that round at the last printed digit
    // (1/32 is an exact tie at 4 digits), and labels longer than
    // any fixed-size row buffer.
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    std::string longLabel;
    for (int i = 0; i < 300; ++i)
        longLabel += static_cast<char>('a' + i % 26);
    SweepReport report;
    report.mappingLabels = {"matched(t=2,lambda=7)", longLabel};
    report.portMixLabels = {"1", longLabel};
    report.workloadLabels = {"single", longLabel};
    // {minLatency, latency}: efficiency = minLatency / latency.
    const std::pair<Cycle, Cycle> latencies[] = {
        {0, 0},           {1, 3},    {2, 3},     {19999, 20000},
        {9999949, 10000000}, {1, 32}, {kMax, kMax}};
    for (std::size_t i = 0; i < std::size(latencies); ++i) {
        ScenarioOutcome o;
        o.index = i == 0 ? kMax : i;
        o.mappingIndex = i % 2;
        o.portMixIndex = (i + 1) % 2;
        o.workloadIndex = i % 2;
        o.stride = kMax;
        o.family = 63;
        o.length = kMax;
        o.a1 = i % 2 ? kMax : 0;
        o.ports = ~0u;
        o.minLatency = latencies[i].first;
        o.latency = latencies[i].second;
        o.stallCycles = kMax;
        o.conflictFree = i % 2 == 0;
        o.inWindow = i % 3 == 0;
        o.accesses = kMax;
        o.decoupledCycles = kMax;
        o.chainedCycles = 0;
        o.chainable = i % 2 == 1;
        o.retunes = kMax;
        o.retuneCycles = kMax - 1;
        o.theoryClaimed = i % 3 ? kMax : 0;
        o.theoryFallback = i % 3 == 1 ? 0 : i;
        o.fallbackReason =
            i % 2 ? FallbackReason::Conflicted : FallbackReason::None;
        report.outcomes.push_back(o);
    }

    // The header lines come from an empty report: only rows differ.
    std::string wantCsv = csvOf(SweepReport{});
    std::string wantJson = "[";
    for (const ScenarioOutcome &o : report.outcomes) {
        wantCsv += iostreamCsvRow(report, o);
        wantJson += (&o == &report.outcomes.front() ? "\n" : ",\n")
                    + iostreamJsonRow(report, o);
    }
    wantJson += "\n]\n";
    EXPECT_EQ(csvOf(report), wantCsv);
    EXPECT_EQ(jsonOf(report), wantJson);
}

TEST(SweepStream, SummarySinkMatchesReportAggregates)
{
    ScenarioGrid grid = pipelineGrid();
    grid.workloads = {{WorkloadKind::Single}, {WorkloadKind::Chain}};
    SweepOptions theory;
    theory.tier = TierPolicy::TheoryFirst;
    const SweepReport report = SweepEngine(theory).run(grid);
    SummarySink summary;
    report.stream(summary);

    // The same aggregates, folded here from the outcomes.
    std::vector<MappingSummary> mappings(report.mappingLabels.size());
    std::vector<double> effSum(mappings.size(), 0.0);
    std::vector<WorkloadSummary> workloads(report.workloadLabels.size());
    std::uint64_t conflictFree = 0;
    Cycle latency = 0;
    for (const auto &o : report.outcomes) {
        MappingSummary &m = mappings[o.mappingIndex];
        ++m.jobs;
        m.conflictFree += o.conflictFree;
        m.totalLatency += o.latency;
        m.totalMinLatency += o.minLatency;
        m.totalStalls += o.stallCycles;
        m.theoryClaimed += o.theoryClaimed;
        m.theoryFallback += o.theoryFallback;
        effSum[o.mappingIndex] += o.efficiency();
        WorkloadSummary &w = workloads[o.workloadIndex];
        ++w.jobs;
        w.accesses += o.accesses;
        w.conflictFree += o.conflictFree;
        w.totalLatency += o.latency;
        w.totalDecoupled += o.decoupledCycles;
        w.totalChained += o.chainedCycles;
        w.chainableJobs += o.chainable;
        w.totalRetunes += o.retunes;
        w.totalRetuneCycles += o.retuneCycles;
        conflictFree += o.conflictFree;
        latency += o.latency;
    }

    EXPECT_EQ(summary.jobs(), report.jobs());
    EXPECT_EQ(summary.conflictFreeJobs(), conflictFree);
    EXPECT_EQ(summary.totalLatency(), latency);
    const auto gotMappings = summary.perMapping();
    ASSERT_EQ(gotMappings.size(), mappings.size());
    for (std::size_t i = 0; i < mappings.size(); ++i) {
        const MappingSummary &got = gotMappings[i];
        const MappingSummary &want = mappings[i];
        EXPECT_EQ(got.label, report.mappingLabels[i]);
        EXPECT_EQ(got.jobs, want.jobs);
        EXPECT_EQ(got.conflictFree, want.conflictFree);
        EXPECT_EQ(got.totalLatency, want.totalLatency);
        EXPECT_EQ(got.totalMinLatency, want.totalMinLatency);
        EXPECT_EQ(got.totalStalls, want.totalStalls);
        EXPECT_EQ(got.theoryClaimed, want.theoryClaimed);
        EXPECT_EQ(got.theoryFallback, want.theoryFallback);
        EXPECT_DOUBLE_EQ(got.meanEfficiency,
                         effSum[i] / static_cast<double>(want.jobs));
    }
    const auto gotWorkloads = summary.perWorkload();
    ASSERT_EQ(gotWorkloads.size(), workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const WorkloadSummary &got = gotWorkloads[i];
        const WorkloadSummary &want = workloads[i];
        EXPECT_EQ(got.label, report.workloadLabels[i]);
        EXPECT_EQ(got.jobs, want.jobs);
        EXPECT_EQ(got.accesses, want.accesses);
        EXPECT_EQ(got.conflictFree, want.conflictFree);
        EXPECT_EQ(got.totalLatency, want.totalLatency);
        EXPECT_EQ(got.totalDecoupled, want.totalDecoupled);
        EXPECT_EQ(got.totalChained, want.totalChained);
        EXPECT_EQ(got.chainableJobs, want.chainableJobs);
        EXPECT_EQ(got.totalRetunes, want.totalRetunes);
        EXPECT_EQ(got.totalRetuneCycles, want.totalRetuneCycles);
    }
    // Chain rows save cycles; the check must see a nonzero fold.
    EXPECT_GT(gotWorkloads[1].totalChainSaved(), 0u);
    EXPECT_EQ(summary.summaryTable().rows(), mappings.size());
    EXPECT_EQ(summary.workloadTable().rows(), workloads.size());
}

TEST(SweepStream, MergeRejectsMismatchedInputs)
{
    test::ScopedPanicThrow guard;
    {
        std::istringstream a("h1,h2\n1,2\n"), b("other\n3,4\n");
        std::vector<std::istream *> in{&a, &b};
        std::ostringstream out;
        EXPECT_THROW(mergeCsv(out, in), std::runtime_error);
    }
    {
        std::istringstream a("not json at all");
        std::vector<std::istream *> in{&a};
        std::ostringstream out;
        EXPECT_THROW(mergeJson(out, in), std::runtime_error);
    }
}

TEST(SweepStream, MergeRejectsMixedSchemas)
{
    // Shards written by builds before and after a column was added
    // must fail the merge loudly, not concatenate silently.
    test::ScopedPanicThrow guard;
    {
        // Old-schema CSV shard (no workload columns) after a
        // current one.
        std::ostringstream current;
        CsvStreamSink sink(current);
        SweepReport report = SweepEngine().run(pipelineGrid());
        report.stream(sink);
        std::istringstream a(current.str());
        std::istringstream b(
            "job,mapping,stride,family,length,a1,ports,port_mix,"
            "latency,min_latency,stalls,conflict_free,in_window,"
            "efficiency\n0,m,1,0,16,0,1,1,21,21,0,1,1,1.0000\n");
        std::vector<std::istream *> in{&a, &b};
        std::ostringstream out;
        EXPECT_THROW(mergeCsv(out, in), std::runtime_error);
    }
    {
        // JSON rows whose field names differ.
        std::istringstream a(
            "[\n  {\"job\": 0, \"latency\": 21}\n]\n");
        std::istringstream b(
            "[\n  {\"job\": 1, \"latency\": 21, \"extra\": 0}\n]\n");
        std::vector<std::istream *> in{&a, &b};
        std::ostringstream out;
        EXPECT_THROW(mergeJson(out, in), std::runtime_error);
    }
    {
        // Identical schemas still merge (quoted values that differ
        // are not schema).
        std::istringstream a(
            "[\n  {\"job\": 0, \"mapping\": \"m one\"}\n]\n");
        std::istringstream b(
            "[\n  {\"job\": 1, \"mapping\": \"m two\"}\n]\n");
        std::vector<std::istream *> in{&a, &b};
        std::ostringstream out;
        mergeJson(out, in);
        EXPECT_EQ(out.str(),
                  "[\n  {\"job\": 0, \"mapping\": \"m one\"},\n"
                  "  {\"job\": 1, \"mapping\": \"m two\"}\n]\n");
    }
}

TEST(SweepStream, MergeHandlesEmptyShards)
{
    // A shard can legitimately receive zero jobs (more shards than
    // jobs); its CSV is a bare header and its JSON an empty array.
    ScenarioGrid grid;
    grid.mappings.push_back(paperMatchedExample());
    grid.strides = {1, 2}; // 2 jobs over 5 shards
    const SweepReport full = SweepEngine().run(grid);

    std::vector<std::string> csvShards, jsonShards;
    for (std::size_t i = 0; i < 5; ++i) {
        SweepOptions opts;
        opts.shard = {i, 5};
        const Streamed s = streamRun(grid, opts);
        csvShards.push_back(s.csv);
        jsonShards.push_back(s.json);
    }
    std::vector<std::istringstream> csvIn, jsonIn;
    std::vector<std::istream *> csvPtrs, jsonPtrs;
    for (std::size_t i = 0; i < 5; ++i) {
        csvIn.emplace_back(csvShards[i]);
        jsonIn.emplace_back(jsonShards[i]);
    }
    for (std::size_t i = 0; i < 5; ++i) {
        csvPtrs.push_back(&csvIn[i]);
        jsonPtrs.push_back(&jsonIn[i]);
    }
    std::ostringstream mergedCsv, mergedJson;
    mergeCsv(mergedCsv, csvPtrs);
    mergeJson(mergedJson, jsonPtrs);
    EXPECT_EQ(mergedCsv.str(), csvOf(full));
    EXPECT_EQ(mergedJson.str(), jsonOf(full));
}

} // namespace
} // namespace cfva::sim
