/**
 * @file
 * Tests for the VectorAccessUnit policy selection and end-to-end
 * latency behavior on the paper's example configurations.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/access_unit.h"
#include "test_util.h"

namespace cfva {
namespace {

TEST(AccessUnit, MatchedWindowAndPolicies)
{
    const VectorAccessUnit unit(paperMatchedExample());
    EXPECT_EQ(unit.window().lo, 0);
    EXPECT_EQ(unit.window().hi, 4);
    EXPECT_TRUE(unit.inWindow(Stride(1)));
    EXPECT_TRUE(unit.inWindow(Stride(12)));
    EXPECT_TRUE(unit.inWindow(Stride(16)));  // x = 4 = s
    EXPECT_FALSE(unit.inWindow(Stride(32))); // x = 5

    // x = s: in order is already conflict free.
    const auto p_s = unit.plan(10, Stride(16), 128);
    EXPECT_EQ(p_s.policy, AccessPolicy::InOrder);
    EXPECT_TRUE(p_s.expectConflictFree);

    // x < s: conflict-free reordering.
    const auto p_low = unit.plan(10, Stride(12), 128);
    EXPECT_EQ(p_low.policy, AccessPolicy::ConflictFree);
    EXPECT_TRUE(p_low.expectConflictFree);
    EXPECT_FALSE(unit.explain(Stride(12), 128).empty());

    // x > s: fallback, not conflict free.
    const auto p_out = unit.plan(10, Stride(32), 128);
    EXPECT_EQ(p_out.policy, AccessPolicy::InOrder);
    EXPECT_FALSE(p_out.expectConflictFree);
}

// The planner decides each access from (stride, length) alone: no
// start changes the policy or the certification, a descending access
// takes its ascending twin's decision, and explain() names the
// policy it describes.
TEST(AccessUnit, DecisionIgnoresTheStart)
{
    std::vector<VectorUnitConfig> cfgs;
    for (unsigned t : {2u, 3u}) {
        VectorUnitConfig cfg; // lambda = 7: L = 128
        cfg.t = t;
        for (MemoryKind kind : {MemoryKind::Matched, MemoryKind::Sectioned,
                                MemoryKind::PseudoRandom}) {
            cfg.kind = kind;
            cfgs.push_back(cfg);
        }
        cfg.kind = MemoryKind::SimpleUnmatched;
        cfg.mOverride = t + 1;
        cfgs.push_back(cfg);
        cfg.mOverride.reset();
        cfg.kind = MemoryKind::DynamicTuned;
        for (unsigned p : {0u, 3u}) {
            cfg.dynamicTune = p;
            cfgs.push_back(cfg);
        }
    }
    const auto names = [](const std::string &why, const char *phrase) {
        return why.find(phrase) != std::string::npos;
    };
    std::set<AccessPolicy> seen;
    for (const VectorUnitConfig &cfg : cfgs) {
        const VectorAccessUnit unit(cfg);
        const std::uint64_t L = cfg.registerLength();
        for (unsigned x = 0; x <= 10; ++x) {
            for (std::uint64_t sigma : {1u, 3u, 7u}) {
                const Stride s = Stride::fromFamily(sigma, x);
                const auto signed_s = static_cast<std::int64_t>(s.value());
                for (std::uint64_t len : {std::uint64_t{1}, std::uint64_t{5},
                                          L / 2, L / 2 + 3, L - 1, L, L + 1,
                                          2 * L, 3 * L + 5}) {
                    SCOPED_TRACE(cfg.describe() + " S="
                                 + std::to_string(s.value())
                                 + " V=" + std::to_string(len));
                    const AccessPlan ref = unit.plan(0, s, len);
                    seen.insert(ref.policy);
                    for (Addr a1 : {Addr{12345}, Addr{1} << 40}) {
                        const AccessPlan p = unit.plan(a1, s, len);
                        EXPECT_EQ(p.policy, ref.policy);
                        EXPECT_EQ(p.expectConflictFree,
                                  ref.expectConflictFree);
                    }
                    const AccessPlan down = unit.plan(
                        (Addr{1} << 40) + (len - 1) * s.value(), -signed_s,
                        len);
                    EXPECT_EQ(down.policy, ref.policy);
                    EXPECT_EQ(down.expectConflictFree,
                              ref.expectConflictFree);

                    const std::string why = unit.explain(s, len);
                    EXPECT_EQ(names(why, "Sec. 5C case ii"),
                              ref.policy == AccessPolicy::ChunkedByL)
                        << why;
                    EXPECT_EQ(names(why, "short vector"),
                              ref.policy == AccessPolicy::SplitShort)
                        << why;
                    EXPECT_EQ(names(why, "out-of-order issue"),
                              ref.policy == AccessPolicy::ConflictFree)
                        << why;
                    EXPECT_EQ(unit.explain(-signed_s, len),
                              why + " (descending: mirrored from "
                                    "ascending twin)");
                }
            }
        }
    }
    EXPECT_EQ(seen.size(), 4u) << "the grid must reach every policy";

    // The quickstart's access.
    const VectorAccessUnit paper(paperMatchedExample());
    EXPECT_EQ(paper.explain(Stride(12), 128),
              "family x=2 in window via w=4: Sec. 3.2 out-of-order issue");
}

TEST(AccessUnit, MatchedWholeWindowMinimumLatency)
{
    // Sec. 3.3 example: every family 0..4 at T+L+1 = 137 cycles.
    const VectorAccessUnit unit(paperMatchedExample());
    for (unsigned x = 0; x <= 4; ++x) {
        for (std::uint64_t sigma : {1ull, 3ull}) {
            for (Addr a1 : {0ull, 5ull, 1000ull}) {
                const auto r = unit.access(
                    a1, Stride::fromFamily(sigma, x), 128);
                EXPECT_TRUE(r.conflictFree)
                    << "x=" << x << " sigma=" << sigma;
                EXPECT_EQ(r.latency, 137u);
            }
        }
    }
    // And x = 5 cannot reach it.
    const auto r = unit.access(0, Stride(32), 128);
    EXPECT_FALSE(r.conflictFree);
    EXPECT_GT(r.latency, 137u);
}

TEST(AccessUnit, SectionedWholeWindowMinimumLatency)
{
    // Sec. 4.3 example: families 0..9 at 137 cycles on M = 64.
    const VectorAccessUnit unit(paperSectionedExample());
    EXPECT_EQ(unit.window().lo, 0);
    EXPECT_EQ(unit.window().hi, 9);
    for (unsigned x = 0; x <= 9; ++x) {
        const auto r = unit.access(6, Stride::fromFamily(3, x), 128);
        EXPECT_TRUE(r.conflictFree) << "x=" << x;
        EXPECT_EQ(r.latency, 137u) << "x=" << x;
    }
    const auto r = unit.access(6, Stride::fromFamily(1, 10), 128);
    EXPECT_FALSE(r.conflictFree);
}

TEST(AccessUnit, SimpleUnmatchedCombinedWindow)
{
    // Sec. 4 opening: in-order for [s, s+m-t], out-of-order below.
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::SimpleUnmatched;
    cfg.t = 2;
    cfg.lambda = 8;
    cfg.mOverride = 4;
    cfg.sOverride = 6;
    const VectorAccessUnit unit(cfg);
    EXPECT_EQ(unit.window().lo, 0);
    EXPECT_EQ(unit.window().hi, 8); // s + m - t

    const auto p_in = unit.plan(0, Stride(64), 256); // x = 6 = s
    EXPECT_EQ(p_in.policy, AccessPolicy::InOrder);
    EXPECT_TRUE(p_in.expectConflictFree);

    const auto p_oo = unit.plan(0, Stride(12), 256); // x = 2 < s
    EXPECT_EQ(p_oo.policy, AccessPolicy::ConflictFree);

    for (unsigned x = 0; x <= 8; ++x) {
        const auto r = unit.access(9, Stride::fromFamily(3, x), 256);
        EXPECT_TRUE(r.conflictFree) << "x=" << x;
        EXPECT_EQ(r.latency, 256u + 4u + 1u) << "x=" << x;
    }
}

TEST(AccessUnit, ShortVectorSplit)
{
    const VectorAccessUnit unit(paperMatchedExample());
    // Stride 12 (x=2), V=40: period 2^{4+3-2}=32, head 32 + tail 8.
    const auto p = unit.plan(16, Stride(12), 40);
    EXPECT_EQ(p.policy, AccessPolicy::SplitShort);
    EXPECT_EQ(p.stream.size(), 40u);
    EXPECT_FALSE(p.expectConflictFree); // nonempty tail

    const auto r = unit.execute(p);
    EXPECT_EQ(r.deliveries.size(), 40u);

    // Pure in-order of the same vector is never faster.
    const auto in_order =
        simulateAccess(unit.memConfig(), unit.mapping(),
                       canonicalOrder(16, Stride(12), 40));
    EXPECT_LE(r.latency, in_order.latency);
}

TEST(AccessUnit, ShortVectorExactMultipleIsConflictFree)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const auto p = unit.plan(16, Stride(12), 64); // 2 periods
    EXPECT_EQ(p.policy, AccessPolicy::SplitShort);
    EXPECT_TRUE(p.expectConflictFree);
    const auto r = unit.execute(p);
    EXPECT_TRUE(r.conflictFree);
    EXPECT_EQ(r.latency, 64u + 8u + 1u);
}

TEST(AccessUnit, ChunkedMultipleOfL)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const auto p = unit.plan(0, Stride(12), 256); // 2 * L
    EXPECT_EQ(p.policy, AccessPolicy::ChunkedByL);
    EXPECT_EQ(p.stream.size(), 256u);

    const auto r = unit.execute(p);
    EXPECT_EQ(r.deliveries.size(), 256u);
    // Each chunk is conflict free; seams cost at most T-1 each.
    EXPECT_LE(r.latency, 256u + 8u + 1u + 7u);

    // Longer multiples: the stream is the concatenation of the
    // per-chunk full-register plans, element numbers offset by the
    // chunk, for the reordered (x < s), in-order (x = s) and
    // out-of-window (x > s) families, with and without address wrap.
    // Only the in-order family keeps the guarantee across seams.
    const std::uint64_t reg_len = unit.config().registerLength();
    for (std::uint64_t len : {4096ull, 65536ull}) {
        for (std::uint64_t stride : {1ull, 12ull, 16ull, 32ull}) {
            for (Addr a1 : {Addr{7}, ~Addr{0} - 1000}) {
                const Stride s(stride);
                const auto chunked = unit.plan(a1, s, len);
                ASSERT_EQ(chunked.policy, AccessPolicy::ChunkedByL);
                ASSERT_EQ(chunked.stream.size(), len);
                EXPECT_EQ(chunked.expectConflictFree, stride == 16)
                    << "stride " << stride;
                for (std::uint64_t c = 0; c < len / reg_len; ++c) {
                    const std::uint64_t first = c * reg_len;
                    const auto chunk =
                        unit.plan(a1 + stride * first, s, reg_len);
                    for (std::uint64_t i = 0; i < reg_len; ++i) {
                        const Request &got = chunked.stream[first + i];
                        ASSERT_EQ(got.addr, chunk.stream[i].addr)
                            << "L " << len << " stride " << stride
                            << " slot " << first + i;
                        ASSERT_EQ(got.element,
                                  chunk.stream[i].element + first)
                            << "L " << len << " stride " << stride
                            << " slot " << first + i;
                    }
                }
            }
        }
    }
}

TEST(AccessUnit, ElementsCoveredExactlyOnceAllPolicies)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const auto &map =
        dynamic_cast<const XorMatchedMapping &>(unit.mapping());
    for (std::uint64_t len :
         {40ull, 64ull, 128ull, 200ull, 256ull, 1000000ull}) {
        for (std::uint64_t stride : {1ull, 12ull, 16ull, 32ull}) {
            const Stride s(stride);
            const auto p = unit.plan(7, s, len);
            ASSERT_EQ(p.stream.size(), len);
            std::vector<bool> seen(len, false);
            for (const auto &req : p.stream) {
                ASSERT_LT(req.element, len);
                ASSERT_FALSE(seen[req.element]);
                seen[req.element] = true;
                ASSERT_EQ(req.addr, 7 + stride * req.element);
            }
            if (p.policy != AccessPolicy::SplitShort)
                continue;

            // Sec. 5C: the conflict-free head, then the in-order
            // tail, in one stream.
            const auto split = planShortVector(
                map.t(), map.xorDistance(), s, len);
            const auto head = split.hasReorderedPart()
                                  ? conflictFreeOrder(7, split.head, map)
                                  : std::vector<Request>{};
            for (std::uint64_t i = 0; i < len; ++i) {
                const Request want =
                    i < split.reordered ? head[i]
                                        : Request{7 + stride * i, i};
                ASSERT_EQ(p.stream[i].addr, want.addr)
                    << "L " << len << " stride " << stride
                    << " slot " << i;
                ASSERT_EQ(p.stream[i].element, want.element)
                    << "L " << len << " stride " << stride
                    << " slot " << i;
            }
        }
    }
}

TEST(AccessUnit, RejectsEmptyAccess)
{
    test::ScopedPanicThrow guard;
    const VectorAccessUnit unit(paperMatchedExample());
    EXPECT_THROW(unit.plan(0, Stride(1), 0), std::runtime_error);
}

TEST(AccessUnit, RejectsNegativeStrideThatWrapsTheGuard)
{
    // 4 * 2^62 wraps to 0, so a product guard a1 >= (V-1)*|S|
    // would accept this and alias elements 0 and 4 at address 0.
    test::ScopedPanicThrow guard;
    const VectorAccessUnit unit(paperMatchedExample());
    EXPECT_THROW(unit.plan(0, -(std::int64_t{1} << 62), 5),
                 std::runtime_error);
}

TEST(AccessUnit, NegativeStrideInt64Min)
{
    // |INT64_MIN| = 2^63 is not representable as an int64_t.
    const VectorAccessUnit unit(paperMatchedExample());
    const auto p = unit.plan(Addr{1} << 63,
                             std::numeric_limits<std::int64_t>::min(), 2);
    ASSERT_EQ(p.stream.size(), 2u);
    for (const auto &req : p.stream) {
        ASSERT_LT(req.element, 2u);
        EXPECT_EQ(req.addr, req.element == 0 ? Addr{1} << 63 : Addr{0});
    }
    EXPECT_NE(p.stream[0].element, p.stream[1].element);
}

TEST(AccessUnit, PolicyNames)
{
    EXPECT_STREQ(to_string(AccessPolicy::InOrder), "in-order");
    EXPECT_STREQ(to_string(AccessPolicy::ConflictFree),
                 "conflict-free");
    EXPECT_STREQ(to_string(AccessPolicy::SplitShort), "split-short");
    EXPECT_STREQ(to_string(AccessPolicy::ChunkedByL), "chunked-by-L");
}

} // namespace
} // namespace cfva
