/**
 * @file
 * Tests for the Sec. 5C short-vector split planner.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "access/short_vector.h"
#include "mapping/analysis.h"
#include "memsys/memory_system.h"
#include "test_util.h"

namespace cfva {
namespace {

TEST(ShortVector, SplitSizes)
{
    // t=3, w=3, x=2: period 16.  V=40 -> head 32, tail 8.
    const auto plan = planShortVector(3, 3, Stride(12), 40);
    EXPECT_EQ(plan.total, 40u);
    EXPECT_EQ(plan.reordered, 32u);
    EXPECT_EQ(plan.ordered, 8u);
    EXPECT_TRUE(plan.hasReorderedPart());
    EXPECT_EQ(plan.head.length, 32u);
}

TEST(ShortVector, AllOrderedWhenBelowOnePeriod)
{
    const auto plan = planShortVector(3, 3, Stride(12), 15);
    EXPECT_EQ(plan.reordered, 0u);
    EXPECT_EQ(plan.ordered, 15u);
    EXPECT_FALSE(plan.hasReorderedPart());
}

TEST(ShortVector, AllReorderedWhenExactMultiple)
{
    const auto plan = planShortVector(3, 3, Stride(12), 48);
    EXPECT_EQ(plan.reordered, 48u);
    EXPECT_EQ(plan.ordered, 0u);
}

TEST(ShortVector, OutsideWindowFallsBackToOrdered)
{
    // x = 4 > w = 3: no T-matched head exists.
    const auto plan = planShortVector(3, 3, Stride(16), 64);
    EXPECT_EQ(plan.reordered, 0u);
    EXPECT_EQ(plan.ordered, 64u);
}

/**
 * Reference for the keyed reordering: the Fig. 4 subsequence order
 * with every 2^t block permuted into the key order of the first
 * block (Sec. 3.2).
 */
std::vector<Request>
keyedReference(Addr a1, const SubsequencePlan &plan,
               const XorMatchedMapping &map)
{
    const auto base = subsequenceOrder(a1, plan);
    const std::uint64_t block = plan.elemsPerSubseq;
    std::vector<std::uint64_t> slot_of_key(block);
    for (std::uint64_t i = 0; i < block; ++i)
        slot_of_key[map.moduleOf(base[i].addr)] = i;
    std::vector<Request> out(base.size());
    for (std::uint64_t i = 0; i < base.size(); ++i) {
        const std::uint64_t first = i - i % block;
        out[first + slot_of_key[map.moduleOf(base[i].addr)]] = base[i];
    }
    return out;
}

TEST(ShortVector, StreamCoversAllElementsOnce)
{
    const XorMatchedMapping map(3, 3);
    const Stride s(12);
    const auto plan = planShortVector(3, 3, s, 40);
    const auto stream = shortVectorOrder(16, s, plan, map);
    ASSERT_EQ(stream.size(), 40u);
    std::set<std::uint64_t> elems;
    for (const auto &req : stream) {
        EXPECT_TRUE(elems.insert(req.element).second);
        EXPECT_EQ(req.addr, 16 + 12 * req.element);
    }
    // Head elements all precede tail elements in issue order.
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_LT(stream[i].element, 32u);
    for (std::size_t i = 32; i < 40; ++i)
        EXPECT_GE(stream[i].element, 32u);

    // conflictFreeOrderByKey, and the head of shortVectorOrder, equal
    // keyedReference, and the tail follows in order, for t = 1..8,
    // w = t and t+1, every x <= w and a start near 2^64 whose
    // addresses wrap.  Two and a half periods leave a tail.
    const auto same = [](const Request &a, const Request &b) {
        return a.addr == b.addr && a.element == b.element;
    };
    for (unsigned t = 1; t <= 8; ++t) {
        for (unsigned w : {t, t + 1}) {
            const XorMatchedMapping key_map(t, w);
            const auto key = [&](Addr a) { return key_map.moduleOf(a); };
            for (unsigned x = 0; x <= w; ++x) {
                for (Addr a1 : {Addr{16}, ~Addr{0} - 100}) {
                    const Stride sx = Stride::fromFamily(3, x);
                    const std::uint64_t period =
                        std::uint64_t{1} << (w + t - x);
                    const std::uint64_t v = 2 * period + period / 2;
                    const auto split = planShortVector(t, w, sx, v);
                    ASSERT_EQ(split.reordered, 2 * period);
                    const auto head =
                        keyedReference(a1, split.head, key_map);
                    const auto keyed =
                        conflictFreeOrderByKey(a1, split.head, key);
                    const auto got =
                        shortVectorOrder(a1, sx, split, key_map);
                    ASSERT_EQ(keyed.size(), head.size());
                    ASSERT_EQ(got.size(), v);
                    for (std::uint64_t i = 0; i < v; ++i) {
                        const bool in_head = i < head.size();
                        const Request want =
                            in_head ? head[i]
                                    : Request{a1 + sx.value() * i, i};
                        ASSERT_TRUE(same(got[i], want)
                                    && (!in_head || same(keyed[i], want)))
                            << "t=" << t << " w=" << w << " x=" << x
                            << " a1=" << a1 << " slot " << i;
                    }
                }
            }
        }
    }
}

TEST(ShortVector, HeadIsConflictFreeInSimulation)
{
    const XorMatchedMapping map(3, 3);
    const MemConfig cfg{3, 3, 2, 1};
    const Stride s(12);

    // Exact multiple: the whole access is conflict free.
    const auto full = planShortVector(3, 3, s, 48);
    const auto full_stream = shortVectorOrder(16, s, full, map);
    const auto full_result = simulateAccess(cfg, map, full_stream);
    EXPECT_TRUE(full_result.conflictFree);

    // With a tail, the head still protects most of the access: the
    // latency beats pure in-order issue.
    const auto mixed = planShortVector(3, 3, s, 40);
    const auto mixed_stream = shortVectorOrder(16, s, mixed, map);
    const auto mixed_result = simulateAccess(cfg, map, mixed_stream);
    const auto inorder_result =
        simulateAccess(cfg, map, canonicalOrder(16, s, 40));
    EXPECT_LE(mixed_result.latency, inorder_result.latency);
}

/** Sweep: the split invariant V = reordered + ordered, reordered a
 *  multiple of the period, maximal. */
class ShortVectorSweep : public ::testing::TestWithParam<
    std::tuple<unsigned, unsigned, unsigned, std::uint64_t>>
    // t, w, x, V
{
};

TEST_P(ShortVectorSweep, SplitInvariants)
{
    const auto [t, w, x, v] = GetParam();
    if (x > w)
        GTEST_SKIP();
    const Stride s = Stride::fromFamily(3, x);
    const auto plan = planShortVector(t, w, s, v);
    EXPECT_EQ(plan.reordered + plan.ordered, v);
    const std::uint64_t period = std::uint64_t{1} << (w + t - x);
    EXPECT_EQ(plan.reordered % period, 0u);
    EXPECT_LT(plan.ordered, period);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShortVectorSweep,
    ::testing::Combine(::testing::Values(2u, 3u),      // t
                       ::testing::Values(3u, 4u),      // w
                       ::testing::Values(0u, 2u, 4u),  // x
                       ::testing::Values<std::uint64_t>(1, 7, 16, 40,
                                                        100, 128)));

} // namespace
} // namespace cfva
