/**
 * @file
 * Bit-sliced address generation: packed lanes == scalar, bit for
 * bit, plus the knobs that ride along with the bit-slice PR.
 *
 * 1. transpose64's anti-diagonal convention, as documented.
 * 2. mapLanes plane bits == parity(addr & row) for every lane.
 * 3. A randomized differential over every mapping kind x lengths
 *    (including non-multiples of 64) x strides: BitSlicedMapper and
 *    the default ModuleMapping::mapModules both match per-element
 *    moduleOf() exactly.
 * 4. The dynamic (retunable) mapping falls back to scalar and stays
 *    correct across retunes.
 * 5. BackendCache keys on MapPath — bit-sliced and scalar variants
 *    of one shape never alias an entry.
 * 6. DeliveryArena request-pool accounting (acquires/reuses/peak).
 * 7. A full randomized SweepEngine grid run under mapPath scalar vs
 *    bit-sliced produces identical reports, and the worker arenas
 *    report a warm hot path (reuses > 0).
 * 8. Worker counts are clamped to the hardware, and on multi-core
 *    hosts threads=N must not regress below 0.95x threads=1.
 */

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/stride.h"
#include "mapping/bitslice.h"
#include "mapping/dynamic.h"
#include "mapping/gf2_linear.h"
#include "mapping/interleave.h"
#include "mapping/prand.h"
#include "mapping/xor_matched.h"
#include "mapping/xor_sectioned.h"
#include "memsys/backend_cache.h"
#include "memsys/memory_system.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "theory/theory_backend.h"

namespace cfva {
namespace {

unsigned
parityOf(std::uint64_t v)
{
    return static_cast<unsigned>(std::popcount(v) & 1);
}

TEST(BitSlice, Transpose64AntiDiagonal)
{
    Rng rng(0x7A55ull);
    std::uint64_t w[64], orig[64];
    for (auto &word : w)
        word = rng.next();
    for (std::size_t i = 0; i < 64; ++i)
        orig[i] = w[i];

    transpose64(w);

    // The documented convention: afterwards bit k of w[j] is bit
    // 63-j of the original w[63-k].
    for (std::size_t j = 0; j < 64; ++j) {
        for (std::size_t k = 0; k < 64; ++k) {
            const unsigned got =
                static_cast<unsigned>((w[j] >> k) & 1);
            const unsigned want = static_cast<unsigned>(
                (orig[63 - k] >> (63 - j)) & 1);
            ASSERT_EQ(got, want)
                << "w[" << j << "] bit " << k << " diverges";
        }
    }

    // Involution: transposing again restores the matrix.
    transpose64(w);
    for (std::size_t i = 0; i < 64; ++i)
        ASSERT_EQ(w[i], orig[i]) << "double transpose row " << i;
}

TEST(BitSlice, MapLanesBitsAreRowParities)
{
    const GF2LinearMapping map = GF2LinearMapping::matched(3, 4);
    std::vector<std::uint64_t> rows;
    ASSERT_TRUE(map.gf2Rows(rows));
    ASSERT_EQ(rows.size(), 3u);

    const BitSlicedMapper mapper(map);
    ASSERT_TRUE(mapper.bitSliced());
    ASSERT_EQ(mapper.moduleBits(), 3u);

    Rng rng(0x1A4E5ull);
    std::uint64_t addrs[kLaneWidth];
    for (auto &a : addrs)
        a = rng.next() >> rng.below(40);

    std::uint64_t planes[3] = {};
    mapper.mapLanes(addrs, planes);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        for (std::size_t k = 0; k < kLaneWidth; ++k) {
            const unsigned got =
                static_cast<unsigned>((planes[i] >> k) & 1);
            ASSERT_EQ(got, parityOf(addrs[k] & rows[i]))
                << "plane " << i << " lane " << k;
        }
    }
}

/** Every linear mapping kind the repo ships, as (label, mapping)
 *  pairs for the differential sweep below. */
struct KindCase
{
    const char *label;
    const ModuleMapping &map;
};

TEST(BitSlice, PackedMatchesScalarAcrossKindsLengthsStrides)
{
    const XorMatchedMapping matched(3, 4);
    const XorSectionedMapping sectioned(2, 3, 7, 2);
    const LowOrderInterleave low(3);
    const FieldInterleave field(3, 4);
    const GF2LinearMapping prand =
        makePseudoRandomMapping(3, 48, 0xC0FFEEull);
    const KindCase kinds[] = {
        {"matched", matched},   {"sectioned", sectioned},
        {"low-order", low},     {"field", field},
        {"pseudo-random", prand},
    };

    // Lengths straddle the 64-lane block size: pure tail, exactly
    // one block, block+tail, multiple blocks.
    const std::size_t lengths[] = {1, 63, 64, 100, 128, 200, 256};

    Rng rng(0xB17511CEull);
    for (const auto &kind : kinds) {
        const BitSlicedMapper mapper(kind.map);
        EXPECT_TRUE(mapper.bitSliced()) << kind.label;
        for (const std::size_t n : lengths) {
            for (unsigned rep = 0; rep < 4; ++rep) {
                const std::uint64_t stride =
                    Stride::fromFamily(
                        rng.oddBelow(64),
                        static_cast<unsigned>(rng.below(8)))
                        .value();
                const Addr a1 = rng.below(Addr{1} << 40);
                std::vector<Addr> addrs(n);
                for (std::size_t i = 0; i < n; ++i)
                    addrs[i] = a1 + i * stride;

                std::vector<ModuleId> packed(n, ModuleId(~0u));
                mapper.map(addrs.data(), n, packed.data());
                std::vector<ModuleId> bulk(n, ModuleId(~0u));
                kind.map.mapModules(addrs.data(), n, bulk.data());
                for (std::size_t i = 0; i < n; ++i) {
                    const ModuleId want = kind.map.moduleOf(addrs[i]);
                    ASSERT_EQ(packed[i], want)
                        << kind.label << " L=" << n << " stride="
                        << stride << " element " << i;
                    ASSERT_EQ(bulk[i], want)
                        << kind.label << " (mapModules) L=" << n
                        << " stride=" << stride << " element " << i;
                }
            }
        }
    }
}

TEST(BitSlice, ScalarPathForcedByMapPathMatchesToo)
{
    const XorMatchedMapping map(3, 4);
    const BitSlicedMapper forced(map, MapPath::Scalar);
    EXPECT_FALSE(forced.bitSliced());

    Rng rng(0x5CA1A7ull);
    std::vector<Addr> addrs(130);
    for (auto &a : addrs)
        a = rng.below(Addr{1} << 44);
    std::vector<ModuleId> out(addrs.size());
    forced.map(addrs.data(), addrs.size(), out.data());
    for (std::size_t i = 0; i < addrs.size(); ++i)
        ASSERT_EQ(out[i], map.moduleOf(addrs[i])) << i;
}

TEST(BitSlice, DynamicMappingFallsBackAndTracksRetunes)
{
    DynamicFieldMapping dyn(3, 4);
    std::vector<std::uint64_t> rows;
    EXPECT_FALSE(dyn.gf2Rows(rows))
        << "the retunable mapping must not expose fixed rows";

    const BitSlicedMapper mapper(dyn);
    EXPECT_FALSE(mapper.bitSliced());

    Rng rng(0xD1Aull);
    std::vector<Addr> addrs(97);
    std::vector<ModuleId> out(addrs.size());
    for (unsigned tune : {4u, 6u, 2u}) {
        dyn.retune(tune);
        for (auto &a : addrs)
            a = rng.below(Addr{1} << 40);
        // The fallback re-reads the mapping per map() call, so a
        // retune between accesses stays visible.
        mapper.map(addrs.data(), addrs.size(), out.data());
        for (std::size_t i = 0; i < addrs.size(); ++i)
            ASSERT_EQ(out[i], dyn.moduleOf(addrs[i]))
                << "tune " << tune << " element " << i;
    }
}

TEST(BitSlice, BackendCacheNeverAliasesMapPaths)
{
    BackendCache cache;
    const XorMatchedMapping map(3, 4);
    const MemConfig cfg{3, 3, 1, 1};

    MemoryBackend &sliced =
        cache.backendFor(cfg, map, MapPath::BitSliced);
    MemoryBackend &scalar = cache.backendFor(cfg, map, MapPath::Scalar);
    EXPECT_NE(&sliced, &scalar)
        << "bit-sliced and scalar variants must not share a backend";
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.size(), 2u);

    // Repeat lookups hit their own entries.
    EXPECT_EQ(&cache.backendFor(cfg, map, MapPath::BitSliced), &sliced);
    EXPECT_EQ(&cache.backendFor(cfg, map, MapPath::Scalar), &scalar);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.size(), 2u);

    // The theory tier caches separately, and also per path.
    TheoryBackend &theorySliced =
        cache.theoryBackendFor(cfg, map, MapPath::BitSliced);
    TheoryBackend &theoryScalar =
        cache.theoryBackendFor(cfg, map, MapPath::Scalar);
    EXPECT_NE(static_cast<MemoryBackend *>(&theorySliced),
              static_cast<MemoryBackend *>(&theoryScalar));
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.size(), 4u);
}

TEST(BitSlice, ArenaRequestPoolAccounting)
{
    DeliveryArena arena;
    EXPECT_EQ(arena.acquires(), 0u);
    EXPECT_EQ(arena.reuses(), 0u);

    std::vector<Request> buf = arena.acquireRequests(100);
    EXPECT_GE(buf.capacity(), 100u);
    EXPECT_EQ(arena.acquires(), 1u);
    EXPECT_EQ(arena.reuses(), 0u);

    arena.releaseRequests(std::move(buf));
    EXPECT_EQ(arena.pooledRequests(), 1u);
    EXPECT_GT(arena.peakBytes(), 0u);

    // The second acquire is served from the pool, keeping the
    // original capacity (no allocator round trip).
    std::vector<Request> again = arena.acquireRequests(50);
    EXPECT_GE(again.capacity(), 100u);
    EXPECT_TRUE(again.empty());
    EXPECT_EQ(arena.acquires(), 2u);
    EXPECT_EQ(arena.reuses(), 1u);
    arena.releaseRequests(std::move(again));

    // An oversize buffer (grown past kMaxPooledCapacity) is freed
    // on release instead of pinning peak-sized capacity forever.
    std::vector<Request> big =
        arena.acquireRequests(DeliveryArena::kMaxPooledCapacity + 1);
    EXPECT_EQ(arena.reuses(), 2u);
    arena.releaseRequests(std::move(big));
    EXPECT_EQ(arena.pooledRequests(), 0u);
}

/** A small randomized grid covering every mapping kind, multiple
 *  port counts, and all workloads the default grid runs. */
sim::ScenarioGrid
differentialGrid(std::uint64_t seed)
{
    Rng rng(seed);
    sim::ScenarioGrid grid;
    auto push = [&](MemoryKind kind, unsigned t, unsigned lambda) {
        VectorUnitConfig cfg;
        cfg.kind = kind;
        cfg.t = t;
        cfg.lambda = lambda;
        cfg.inputBuffers = 1 + static_cast<unsigned>(rng.below(3));
        cfg.outputBuffers = 1 + static_cast<unsigned>(rng.below(2));
        if (kind == MemoryKind::SimpleUnmatched) {
            cfg.mOverride =
                t + static_cast<unsigned>(
                        rng.below(lambda - 2 * t + 1));
        }
        if (kind == MemoryKind::DynamicTuned)
            cfg.dynamicTune = static_cast<unsigned>(rng.below(6));
        if (kind == MemoryKind::PseudoRandom)
            cfg.prandSeed = rng.next();
        grid.mappings.push_back(cfg);
    };
    for (MemoryKind kind :
         {MemoryKind::Matched, MemoryKind::SimpleUnmatched,
          MemoryKind::Sectioned, MemoryKind::DynamicTuned,
          MemoryKind::PseudoRandom}) {
        const unsigned t = 2 + static_cast<unsigned>(rng.below(2));
        const unsigned lambda =
            2 * t + 1 + static_cast<unsigned>(rng.below(2));
        push(kind, t, lambda);
    }
    for (unsigned x = 0; x <= 5; ++x)
        grid.strides.push_back(
            Stride::fromFamily(rng.oddBelow(64), x).value());
    // Full register, a non-64-multiple short vector, and a chunked
    // multi-register length.
    grid.lengths = {0, 1 + rng.below(31), 512};
    grid.randomStarts = 1;
    grid.ports = {1, 2};
    grid.seed = rng.next();
    return grid;
}

TEST(BitSlice, SweepGridBitSlicedMatchesScalarBitForBit)
{
    const sim::ScenarioGrid grid = differentialGrid(0xB175EEDull);
    ASSERT_GE(grid.jobCount(), 200u);

    sim::SweepOptions scalar;
    scalar.mapPath = MapPath::Scalar;
    sim::SweepOptions sliced;
    sliced.mapPath = MapPath::BitSliced;

    const sim::SweepReport oracle =
        sim::SweepEngine(scalar).run(grid);
    sim::SweepRunStats stats;
    const sim::SweepReport tested =
        sim::SweepEngine(sliced).run(grid, &stats);

    ASSERT_EQ(oracle.jobs(), grid.jobCount());
    ASSERT_EQ(tested.jobs(), oracle.jobs());
    for (std::size_t i = 0; i < oracle.jobs(); ++i) {
        EXPECT_EQ(tested.outcomes[i], oracle.outcomes[i])
            << "scenario " << i << " ("
            << oracle.mappingLabels[oracle.outcomes[i].mappingIndex]
            << " stride " << oracle.outcomes[i].stride << " length "
            << oracle.outcomes[i].length << ") diverges between "
            << "map paths";
    }
    EXPECT_EQ(tested, oracle);

    // The worker arenas must be live and warm on the hot path.
    EXPECT_GT(stats.arenaAcquires, 0u);
    EXPECT_GT(stats.arenaReuses, 0u);
    EXPECT_GT(stats.arenaPeakBytes, 0u);
    EXPECT_GE(stats.arenaAcquires, stats.arenaReuses);
}

TEST(BitSlice, WorkerCountClampsToHardware)
{
    const sim::ScenarioGrid grid = differentialGrid(0xC1A3Dull);
    sim::SweepOptions opts;
    opts.threads = 4096; // absurd request: must clamp, not spawn
    sim::SweepRunStats stats;
    const sim::SweepReport report =
        sim::SweepEngine(opts).run(grid, &stats);
    EXPECT_EQ(report.jobs(), grid.jobCount());
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    EXPECT_LE(stats.threads, hw);
    EXPECT_GE(stats.threads, 1u);
}

TEST(BitSlice, MultiThreadThroughputNoWorseThanSingle)
{
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 2)
        GTEST_SKIP() << "single-CPU host: scaling check needs >= 2 "
                        "hardware threads";

    const sim::ScenarioGrid grid = differentialGrid(0x5CA1EDull);
    auto timeRun = [&](unsigned threads) {
        sim::SweepOptions opts;
        opts.threads = threads;
        const auto t0 = std::chrono::steady_clock::now();
        const sim::SweepReport r = sim::SweepEngine(opts).run(grid);
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

} // namespace
} // namespace cfva
