/**
 * @file
 * Tests for the multi-port (simultaneous multi-vector) extension.
 */

#include <gtest/gtest.h>

#include "access/ordering.h"
#include "core/access_unit.h"
#include "mapping/interleave.h"
#include "memsys/memory_system.h"
#include "test_util.h"
#include "theory/theory.h"

namespace cfva {
namespace {

TEST(MultiPort, SinglePortMatchesSinglePortSimulator)
{
    const MemConfig cfg{3, 3, 1, 1};
    const LowOrderInterleave map(3);
    const auto stream = canonicalOrder(5, Stride(1), 64);

    const auto single = simulateAccess(cfg, map, stream);
    const auto multi = simulateMultiPort(cfg, map, {stream});

    ASSERT_EQ(multi.ports.size(), 1u);
    EXPECT_EQ(multi.ports[0].latency, single.latency);
    EXPECT_EQ(multi.ports[0].stallCycles, single.stallCycles);
    EXPECT_EQ(multi.ports[0].conflictFree, single.conflictFree);
    ASSERT_EQ(multi.ports[0].deliveries.size(),
              single.deliveries.size());
    for (std::size_t i = 0; i < single.deliveries.size(); ++i) {
        EXPECT_EQ(multi.ports[0].deliveries[i].element,
                  single.deliveries[i].element);
        EXPECT_EQ(multi.ports[0].deliveries[i].delivered,
                  single.deliveries[i].delivered);
    }
}

TEST(MultiPort, DisjointModuleStreamsDoNotInterfere)
{
    // Port 0 walks modules 0..3, port 1 walks modules 4..7 (m=3,
    // T = 4 so each four-module half can sustain one access per
    // cycle).  Both ports must achieve their single-port minimum.
    const MemConfig cfg{3, 2, 1, 1};
    const LowOrderInterleave map(3);

    std::vector<Request> s0, s1;
    for (std::uint64_t i = 0; i < 32; ++i) {
        s0.push_back({(i % 4) + 8 * (i / 4), i});
        s1.push_back({4 + (i % 4) + 8 * (i / 4), i});
    }
    const auto r = simulateMultiPort(cfg, map, {s0, s1});
    EXPECT_TRUE(r.allConflictFree());
    EXPECT_EQ(r.ports[0].latency, 32u + 4u + 1u);
    EXPECT_EQ(r.ports[1].latency, 32u + 4u + 1u);
}

TEST(MultiPort, CollidingStreamsInterfereOnMatchedMemory)
{
    // Two identical odd-stride streams on a matched memory: the
    // modules can serve exactly one access per cycle total, so two
    // ports must roughly halve throughput.
    const VectorAccessUnit unit(paperMatchedExample());
    const auto plan = unit.plan(0, Stride(1), 128);

    const auto r = simulateMultiPort(unit.memConfig(),
                                     unit.mapping(),
                                     {plan.stream, plan.stream});
    EXPECT_FALSE(r.allConflictFree());
    EXPECT_GT(r.makespan, 2u * 128u); // serialization shows up
}

TEST(MultiPort, UnmatchedMemoryAbsorbsTwoVectors)
{
    // Sec. 5E's justification for extra modules: on M = T^2 = 64
    // modules, two simultaneous in-window vectors with different
    // starting addresses can both run near their minimum.
    const VectorAccessUnit unit(paperSectionedExample());
    const auto p0 = unit.plan(0, Stride(1), 128);
    const auto p1 = unit.plan(1 << 12, Stride(3), 128);

    const auto r = simulateMultiPort(unit.memConfig(),
                                     unit.mapping(),
                                     {p0.stream, p1.stream});
    const Cycle minimum = theory::minimumLatency(128, 8);
    // Interference bound: within 2x of single-port minimum, far
    // better than full serialization (2 * L extra cycles).
    EXPECT_LE(r.ports[0].latency, 2 * minimum);
    EXPECT_LE(r.ports[1].latency, 2 * minimum);
    EXPECT_LT(r.makespan, 2u * minimum);
}

TEST(MultiPort, RoundRobinPreventsStarvation)
{
    // Both ports hammer module 0 with q = 1: progress must
    // alternate rather than letting one port finish first.
    const MemConfig cfg{2, 2, 1, 1};
    const LowOrderInterleave map(2);
    std::vector<Request> s;
    for (std::uint64_t i = 0; i < 8; ++i)
        s.push_back({4 * i, i}); // all module 0
    const auto r = simulateMultiPort(cfg, map, {s, s});

    // Fairness: the two ports' last deliveries are close together.
    const Cycle d0 = r.ports[0].lastDelivery;
    const Cycle d1 = r.ports[1].lastDelivery;
    const Cycle gap = d0 > d1 ? d0 - d1 : d1 - d0;
    EXPECT_LE(gap, 8u); // within two service times
    EXPECT_EQ(r.ports[0].deliveries.size(), 8u);
    EXPECT_EQ(r.ports[1].deliveries.size(), 8u);
}

TEST(MultiPort, RejectsEmptyPortList)
{
    test::ScopedPanicThrow guard;
    const MemConfig cfg{2, 2, 1, 1};
    const LowOrderInterleave map(2);
    EXPECT_THROW(simulateMultiPort(cfg, map, {}),
                 std::runtime_error);
}

TEST(MultiPort, PortTagsPreserved)
{
    const MemConfig cfg{2, 2, 2, 2};
    const LowOrderInterleave map(2);
    const auto s0 = canonicalOrder(0, Stride(1), 16);
    const auto s1 = canonicalOrder(1, Stride(3), 16);
    const auto r = simulateMultiPort(cfg, map, {s0, s1});
    for (const auto &d : r.ports[0].deliveries)
        EXPECT_EQ(d.port, 0u);
    for (const auto &d : r.ports[1].deliveries)
        EXPECT_EQ(d.port, 1u);
}

} // namespace
} // namespace cfva
