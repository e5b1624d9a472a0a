/**
 * @file
 * Tests for the Sec. 5F chaining model.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/stats.h"
#include "core/access_unit.h"
#include "core/chaining.h"
#include "memsys/memory_system.h"
#include "test_util.h"

namespace cfva {
namespace {

TEST(Chaining, ConflictFreeLoadChainsPerfectly)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const auto r = unit.access(16, Stride(12), 128);
    ASSERT_TRUE(r.conflictFree);

    const auto report = chainingModel(r, /*execLatency=*/4);
    EXPECT_TRUE(report.chainable);
    EXPECT_EQ(report.loadDone, r.lastDelivery);

    // Decoupled: load (137 cycles, last delivery at 136) + issue
    // 128 operands + drain.
    EXPECT_EQ(report.decoupledTotal, 136u + 1u + 127u + 4u);

    // Chained: the execute unit tracks deliveries one cycle behind;
    // the last operand issues at lastDelivery + 1.
    EXPECT_EQ(report.chainedTotal, 136u + 1u + 4u);

    // Chaining saves ~L cycles.
    EXPECT_EQ(report.saved(), 127u);
}

TEST(Chaining, ConflictedLoadChainsPoorly)
{
    // Out-of-window stride: delivery is bursty; chaining still
    // works functionally but the report flags non-determinism.
    const VectorAccessUnit unit(paperMatchedExample());
    const auto r = unit.access(0, Stride(32), 128);
    ASSERT_FALSE(r.conflictFree);

    const auto report = chainingModel(r);
    EXPECT_FALSE(report.chainable);
    // One return bus delivers at most one element per cycle, so the
    // last operand issues the cycle after the last delivery, and
    // only the 1-cycle drain follows it.
    EXPECT_EQ(report.chainedTotal, r.lastDelivery + 1 + 1);
    EXPECT_LE(report.chainedTotal, report.decoupledTotal);
}

TEST(Chaining, SavingsScaleWithVectorLength)
{
    const VectorAccessUnit unit(paperMatchedExample());
    const auto r = unit.access(0, Stride(1), 128);
    ASSERT_TRUE(r.conflictFree);
    const auto report = chainingModel(r);
    // For a conflict-free load, chaining saves L - 1 cycles.
    EXPECT_EQ(report.saved(), 127u);
}

// The sweep costs an EXECUTE step in closed form
// (sim/sweep_engine.cc): delivered_k increases by at least one per
// element, so chained operand k issues at delivered_k + 1, and a
// load of L elements at execute depth e costs (L - 1) + e decoupled
// and e chained, chainable iff it was conflict free.  That closed
// form must equal the model on the oracle's delivery stream of
// every mapping kind, buffer shape and stride family, conflicted
// loads above all.
TEST(ChainingProperty, ClosedFormEqualsTheModel)
{
    Rng rng(0xC4A15EEDull);
    std::uint64_t loads = 0;
    std::uint64_t conflicted = 0;
    for (MemoryKind kind :
         {MemoryKind::Matched, MemoryKind::SimpleUnmatched,
          MemoryKind::Sectioned, MemoryKind::DynamicTuned,
          MemoryKind::PseudoRandom}) {
        for (unsigned t : {1u, 2u, 3u}) {
            for (unsigned q : {1u, 2u, 3u}) {
                for (unsigned qOut : {1u, 2u}) {
                    VectorUnitConfig cfg;
                    cfg.kind = kind;
                    cfg.t = t;
                    cfg.lambda = 2 * t + 2;
                    cfg.inputBuffers = q;
                    cfg.outputBuffers = qOut;
                    if (kind == MemoryKind::SimpleUnmatched)
                        cfg.mOverride = t + 1; // s = t + 2 >= m
                    if (kind == MemoryKind::DynamicTuned)
                        cfg.dynamicTune =
                            static_cast<unsigned>(rng.below(10));
                    if (kind == MemoryKind::PseudoRandom)
                        cfg.prandSeed = rng.next();
                    const VectorAccessUnit unit(cfg);
                    MemorySystem oracle(unit.memConfig(),
                                        unit.mapping());
                    for (unsigned family = 0; family <= 9; ++family) {
                        for (int trial = 0; trial < 3; ++trial) {
                            const std::uint64_t L = 1 + rng.below(300);
                            const AccessPlan plan = unit.plan(
                                rng.below(Addr{1} << 20),
                                Stride::fromFamily(rng.oddBelow(64),
                                                   family),
                                L);
                            const AccessResult load =
                                oracle.runSingle(plan.stream);
                            ++loads;
                            conflicted += load.conflictFree ? 0 : 1;
                            for (Cycle e : {1u, 4u, 17u}) {
                                const ChainCosts c = chainCosts(load, e);
                                ASSERT_EQ(c.decoupled, (L - 1) + e)
                                    << cfg.describe() << " family="
                                    << family << " L=" << L;
                                ASSERT_EQ(c.chained, e)
                                    << cfg.describe() << " family="
                                    << family << " L=" << L;
                                ASSERT_EQ(c.chainable, load.conflictFree)
                                    << cfg.describe() << " family="
                                    << family << " L=" << L;
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(loads, 5u * 3 * 3 * 2 * 10 * 3);
    EXPECT_GE(conflicted, 1000u);
}

TEST(Chaining, RejectsBadInput)
{
    test::ScopedPanicThrow guard;
    AccessResult empty;
    EXPECT_THROW(chainingModel(empty), std::runtime_error);

    const VectorAccessUnit unit(paperMatchedExample());
    const auto r = unit.access(0, Stride(1), 128);
    EXPECT_THROW(chainingModel(r, 0), std::runtime_error);
}

} // namespace
} // namespace cfva
