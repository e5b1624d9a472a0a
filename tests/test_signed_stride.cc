/**
 * @file
 * Tests for the signed-stride overload: descending vectors reuse
 * the ascending machinery with mirrored element indices (the
 * paper's sign-symmetry note in Sec. 2).
 */

#include <gtest/gtest.h>

#include <set>

#include "core/access_unit.h"
#include "test_util.h"
#include "theory/theory.h"

namespace cfva {
namespace {

TEST(SignedStride, PositiveDelegates)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const auto a = unit.plan(16, std::int64_t{12}, 128);
    const auto b = unit.plan(16, Stride(12), 128);
    ASSERT_EQ(a.stream.size(), b.stream.size());
    for (std::size_t i = 0; i < a.stream.size(); ++i) {
        EXPECT_EQ(a.stream[i].addr, b.stream[i].addr);
        EXPECT_EQ(a.stream[i].element, b.stream[i].element);
    }
}

TEST(SignedStride, DescendingAddressesAndElements)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const Addr a1 = 10000;
    const auto p = unit.plan(a1, std::int64_t{-12}, 128);
    ASSERT_EQ(p.stream.size(), 128u);

    std::set<std::uint64_t> elems;
    for (const auto &req : p.stream) {
        EXPECT_TRUE(elems.insert(req.element).second);
        // Element i of a descending vector lives at a1 - 12*i.
        EXPECT_EQ(req.addr, a1 - 12 * req.element);
    }
    EXPECT_EQ(elems.size(), 128u);
}

TEST(SignedStride, DescendingStillConflictFree)
{
    // |S| = 12 is in the window; the mirrored plan must keep the
    // minimum latency.
    const VectorAccessUnit unit(paperMatchedExample());
    const auto p = unit.plan(10000, std::int64_t{-12}, 128);
    EXPECT_TRUE(p.expectConflictFree);
    const auto r = unit.execute(p);
    EXPECT_TRUE(r.conflictFree);
    EXPECT_EQ(r.latency, theory::minimumLatency(128, 8));
}

TEST(SignedStride, DescendingOutOfWindowStaysCorrect)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const auto p = unit.plan(50000, std::int64_t{-32}, 128);
    EXPECT_FALSE(p.expectConflictFree);
    const auto r = unit.execute(p);
    ASSERT_EQ(r.deliveries.size(), 128u);
    for (const auto &d : r.deliveries)
        EXPECT_EQ(d.addr, 50000 - 32 * d.element);
}

TEST(SignedStride, RejectsZeroAndUnderflow)
{
    test::ScopedPanicThrow guard;
    const VectorAccessUnit unit(paperMatchedExample());
    EXPECT_THROW(unit.plan(100, std::int64_t{0}, 128),
                 std::runtime_error);
    // a1 too low for 128 descending elements of stride 12.
    EXPECT_THROW(unit.plan(100, std::int64_t{-12}, 128),
                 std::runtime_error);
}

TEST(SignedStride, RationaleMentionsMirroring)
{
    const VectorAccessUnit unit(paperMatchedExample());
    EXPECT_NE(unit.explain(std::int64_t{-12}, 128).find("descending"),
              std::string::npos);
}

} // namespace
} // namespace cfva
