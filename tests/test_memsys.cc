/**
 * @file
 * Tests for the cycle-accurate multi-module memory simulator, the
 * per-worker backend cache, and the delivery arena's request pool.
 */

#include <gtest/gtest.h>

#include <vector>

#include "access/ordering.h"
#include "common/stats.h"
#include "mapping/dynamic.h"
#include "mapping/interleave.h"
#include "mapping/xor_matched.h"
#include "memsys/backend_cache.h"
#include "memsys/memory_system.h"
#include "test_util.h"
#include "theory/theory_backend.h"

namespace cfva {
namespace {

TEST(MemoryModule, LifecycleTiming)
{
    MemoryModule mod(0, /*T=*/4, /*q=*/1, /*q'=*/1);
    EXPECT_TRUE(mod.canAccept());
    EXPECT_TRUE(mod.drained());

    Delivery d;
    d.module = 0;
    d.arrived = 1;
    mod.accept(d);
    EXPECT_FALSE(mod.canAccept());
    EXPECT_FALSE(mod.drained());

    // Not arrived yet at cycle 0.
    mod.tryStart(0);
    EXPECT_FALSE(mod.canAccept());

    // Starts at cycle 1, ready at 5.
    mod.tryStart(1);
    EXPECT_TRUE(mod.canAccept());
    mod.retire(4);
    EXPECT_EQ(mod.outputHead(), nullptr);
    mod.retire(5);
    ASSERT_NE(mod.outputHead(), nullptr);
    EXPECT_EQ(mod.outputHead()->serviceStart, 1u);
    EXPECT_EQ(mod.outputHead()->ready, 5u);

    const Delivery out = mod.popOutput();
    EXPECT_EQ(out.ready, 5u);
    EXPECT_TRUE(mod.drained());
}

TEST(MemoryModule, OutputBackPressureBlocksService)
{
    MemoryModule mod(0, /*T=*/2, /*q=*/2, /*q'=*/1);
    Delivery d;
    d.module = 0;
    d.arrived = 0;
    mod.accept(d);
    mod.accept(d);

    mod.tryStart(0);       // first service: ready at 2
    mod.retire(2);         // into the single output slot
    mod.tryStart(2);       // second service: ready at 4
    mod.retire(4);         // blocked: output still full
    EXPECT_NE(mod.outputHead(), nullptr);
    mod.popOutput();
    mod.retire(4);         // now it retires
    ASSERT_NE(mod.outputHead(), nullptr);
    EXPECT_EQ(mod.outputHead()->ready, 4u);
}

TEST(MemoryModule, RejectsMisroutedRequest)
{
    test::ScopedPanicThrow guard;
    MemoryModule mod(3, 4, 1, 1);
    Delivery d;
    d.module = 2;
    EXPECT_THROW(mod.accept(d), std::runtime_error);
}

TEST(MemorySystem, ConflictFreeStreamHitsMinimumLatency)
{
    // Odd stride on low-order interleave: conflict free, so the
    // latency must be exactly L + T + 1 (paper Sec. 2).
    const MemConfig cfg{3, 3, 1, 1};
    const LowOrderInterleave map(3);
    const auto stream = canonicalOrder(5, Stride(1), 64);
    const auto result = simulateAccess(cfg, map, stream);

    EXPECT_TRUE(result.conflictFree);
    EXPECT_EQ(result.latency, 64u + 8u + 1u);
    EXPECT_EQ(result.stallCycles, 0u);
    ASSERT_EQ(result.deliveries.size(), 64u);

    // One element per cycle after the T+1 startup, in order.
    for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_EQ(result.deliveries[i].element, i);
        EXPECT_EQ(result.deliveries[i].delivered, i + 9);
        EXPECT_EQ(result.deliveries[i].issued, i);
    }
}

TEST(MemorySystem, WorstCaseSingleModule)
{
    // Stride = M on interleave: every element in one module; the
    // memory serializes at T cycles per element.
    const MemConfig cfg{3, 3, 1, 1};
    const LowOrderInterleave map(3);
    const std::uint64_t len = 32;
    const auto stream = canonicalOrder(0, Stride(8), len);
    const auto result = simulateAccess(cfg, map, stream);

    EXPECT_FALSE(result.conflictFree);
    EXPECT_GT(result.stallCycles, 0u);
    // Asymptotically T cycles per element.
    EXPECT_GE(result.latency, (len - 1) * 8);
    // Delivery preserves module FIFO order.
    for (std::size_t i = 0; i < len; ++i)
        EXPECT_EQ(result.deliveries[i].element, i);
}

TEST(MemorySystem, PartialConflictLatencyBetweenBounds)
{
    // The Sec. 3 example (stride 12 in order) conflicts but spreads
    // over all modules: latency strictly between the minimum and
    // the single-module worst case.
    const MemConfig cfg{3, 3, 1, 1};
    const XorMatchedMapping map(3, 3);
    const auto stream = canonicalOrder(16, Stride(12), 64);
    const auto result = simulateAccess(cfg, map, stream);

    EXPECT_FALSE(result.conflictFree);
    EXPECT_GT(result.latency, 64u + 8u + 1u);
    EXPECT_LT(result.latency, 64u * 8u);
}

TEST(MemorySystem, InputBuffersAbsorbShortBursts)
{
    // Two requests to the same module back to back: with q = 2 the
    // second is accepted immediately (no processor stall), it just
    // waits in the buffer.
    const MemConfig shallow{2, 2, 1, 1};
    const MemConfig deep{2, 2, 2, 1};
    const LowOrderInterleave map(2);

    // Pattern: module 0 three times, then conflict free.  With
    // q = 1 the third request finds the input buffer still holding
    // the second; with q = 2 it is absorbed.
    std::vector<Request> stream = {
        {0, 0}, {4, 1}, {8, 2}, {1, 3}, {2, 4},
    };
    const auto r_shallow = simulateAccess(shallow, map, stream);
    const auto r_deep = simulateAccess(deep, map, stream);
    EXPECT_GT(r_shallow.stallCycles, 0u);
    EXPECT_EQ(r_deep.stallCycles, 0u);
    EXPECT_LE(r_deep.latency, r_shallow.latency);
}

TEST(MemorySystem, ReturnBusDeliversOldestReadyFirst)
{
    // Two modules finish in staggered order; the bus must deliver
    // by readiness, not module index.
    const MemConfig cfg{1, 1, 2, 2};
    const LowOrderInterleave map(1);
    // Module 1 first, then module 0.
    std::vector<Request> stream = {{1, 0}, {0, 1}};
    const auto result = simulateAccess(cfg, map, stream);
    ASSERT_EQ(result.deliveries.size(), 2u);
    EXPECT_EQ(result.deliveries[0].element, 0u);
    EXPECT_EQ(result.deliveries[1].element, 1u);
    EXPECT_LE(result.deliveries[0].ready, result.deliveries[1].ready);
}

TEST(MemorySystem, EmptyStream)
{
    const MemConfig cfg{2, 2, 1, 1};
    const LowOrderInterleave map(2);
    const auto result = simulateAccess(cfg, map, {});
    EXPECT_TRUE(result.conflictFree);
    EXPECT_TRUE(result.deliveries.empty());
}

TEST(MemorySystem, MismatchedMappingRejected)
{
    test::ScopedPanicThrow guard;
    const MemConfig cfg{3, 3, 1, 1};
    const LowOrderInterleave map(2);
    EXPECT_THROW(MemorySystem(cfg, map), std::runtime_error);
}

TEST(MemorySystem, OnePortPathsAgree)
{
    // One port is the P = 1 case of the one cycle loop: runSingle,
    // run with one stream, and port 0 of run with an empty second
    // port must agree record for record, and so must the makespans.
    Rng rng(0x0E1F0125ull);
    unsigned checked = 0;
    for (unsigned m = 1; m <= 4; ++m) {
        for (unsigned t = 1; t <= 3; ++t) {
            for (unsigned q = 1; q <= 3; ++q) {
                for (unsigned qOut = 1; qOut <= 2; ++qOut) {
                    const MemConfig cfg{m, t, q, qOut};
                    const LowOrderInterleave map(m);
                    MemorySystem sys(cfg, map);
                    for (unsigned shape = 0; shape < 3; ++shape) {
                        const std::size_t len = rng.below(120);
                        std::vector<Request> s(len);
                        for (std::size_t i = 0; i < len; ++i) {
                            // Random, single-module pileup, and
                            // sequential addresses.
                            const Addr a = shape == 0 ? rng.below(1024)
                                           : shape == 1 ? i << m
                                                        : i;
                            s[i] = {a, i};
                        }
                        const AccessResult single = sys.runSingle(s);
                        const MultiPortResult one = sys.run({s});
                        const MultiPortResult two = sys.run({s, {}});
                        ASSERT_EQ(one.ports.size(), 1u);
                        ASSERT_EQ(two.ports.size(), 2u);
                        EXPECT_EQ(one.ports[0], single);
                        EXPECT_EQ(two.ports[0], single);
                        EXPECT_TRUE(two.ports[1].deliveries.empty());
                        EXPECT_TRUE(two.ports[1].conflictFree);
                        const Cycle makespan =
                            len == 0 ? 0 : single.lastDelivery + 1;
                        EXPECT_EQ(one.makespan, makespan);
                        EXPECT_EQ(two.makespan, makespan);
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_EQ(checked, 216u);
}

TEST(MemorySystem, UnmatchedMemoryMoreModulesNoSlower)
{
    // M = T^2 modules can only help relative to M = T for the same
    // request addresses.
    const LowOrderInterleave map_small(2);
    const LowOrderInterleave map_big(4);
    const MemConfig small{2, 2, 1, 1};
    const MemConfig big{4, 2, 1, 1};
    for (std::uint64_t stride : {1ull, 2ull, 3ull, 6ull}) {
        const auto stream = canonicalOrder(3, Stride(stride), 64);
        const auto r_small = simulateAccess(small, map_small, stream);
        const auto r_big = simulateAccess(big, map_big, stream);
        EXPECT_LE(r_big.latency, r_small.latency)
            << "stride " << stride;
    }
}

TEST(MemoryModule, PeakOccupancyTracksBacklog)
{
    MemoryModule mod(0, /*T=*/4, /*q=*/3, /*q'=*/1);
    Delivery d;
    d.module = 0;
    d.arrived = 0;
    mod.accept(d);
    mod.accept(d);
    EXPECT_EQ(mod.peakInputOccupancy(), 2u);
    mod.tryStart(0); // drains one entry
    mod.accept(d);
    EXPECT_EQ(mod.peakInputOccupancy(), 2u); // peak, not current
    mod.accept(d);
    EXPECT_EQ(mod.peakInputOccupancy(), 3u);
}

TEST(MemorySystem, DeliveryOrderHelper)
{
    const MemConfig cfg{2, 2, 1, 1};
    const LowOrderInterleave map(2);
    const auto stream = canonicalOrder(0, Stride(1), 8);
    const auto result = simulateAccess(cfg, map, stream);
    const auto order = result.deliveryOrder();
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(BackendCache, CachedBackendsSeeRetunesBetweenAccesses)
{
    // Backends premap every stream through the mapping's moduleOf()
    // on each run, so a cached oracle and a cached evaluator follow
    // a retune() made between two accesses: the oracle's deliveries
    // name the retuned modules, and the evaluator answers the
    // oracle's aggregates over them.
    DynamicFieldMapping dyn(3, 4);
    const MemConfig cfg{3, 3, 1, 1};
    BackendCache cache;
    Rng rng(0xD1Aull);
    std::vector<Request> stream(97);
    for (unsigned tune : {4u, 6u, 2u}) {
        dyn.retune(tune);
        for (std::size_t i = 0; i < stream.size(); ++i)
            stream[i] = Request{rng.below(Addr{1} << 40), i};
        const AccessResult oracle =
            cache.backendFor(cfg, dyn).runSingle(stream);
        ASSERT_EQ(oracle.deliveries.size(), stream.size());
        for (const Delivery &d : oracle.deliveries) {
            ASSERT_EQ(d.module, dyn.moduleOf(stream[d.element].addr))
                << "tune " << tune << " element " << d.element;
        }
        EXPECT_EQ(cache.theoryBackendFor(cfg, dyn).runSingle(stream),
                  test::withoutDeliveries(oracle))
            << "tune " << tune;
    }
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 4u);
}

TEST(DeliveryArena, RequestPoolAccounting)
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

} // namespace
} // namespace cfva
