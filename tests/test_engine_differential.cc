/**
 * @file
 * Differential testing of the event stepper and the evaluator
 * against the cycle-accurate oracle.
 *
 * The contract (memsys/event_driven.h): for every request stream on
 * every memory shape, EventStepper::run returns an AccessResult
 * bit-identical to the oracle's (memsys/memory_system.h) — every
 * delivery record with all five timestamps, every stall, every
 * aggregate — and a summary pass carries the same aggregates with no
 * delivery at all.  Two layers of evidence:
 *
 * 1. Raw-stream properties: randomized and adversarial request
 *    streams (single-module pileups, clustered addresses, permuted
 *    orders, tiny buffers) driven through the oracle and through the
 *    stepper as the theory tier runs it (recurrence jump on,
 *    stepping on to the end when nothing recurs).
 * 2. A randomized ScenarioGrid of > 1000 planned accesses across
 *    every mapping kind, swept once per tier; the SweepReports must
 *    compare equal outside the tier-attribution columns, and each
 *    scenario's direct AccessResults must compare equal.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.h"
#include "core/access_unit.h"
#include "mapping/interleave.h"
#include "mapping/xor_matched.h"
#include "memsys/event_driven.h"
#include "memsys/memory_system.h"
#include "memsys/steady_state.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "test_util.h"

namespace cfva {
namespace {

/**
 * Runs @p stream through the oracle and through the stepper at full
 * and at summary detail, and asserts the stepper agrees: the full
 * pass record for record, the summary pass on every aggregate.
 */
void
expectEnginesAgree(const MemConfig &cfg, const ModuleMapping &map,
                   const std::vector<Request> &stream,
                   const char *what)
{
    const AccessResult oracle = simulateAccess(cfg, map, stream);
    std::vector<ModuleId> mods(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i)
        mods[i] = map.moduleOf(stream[i].addr);

    EventStepper stepper;
    AccessResult event;
    stepper.run(cfg, stream, mods.data(), Recurrence::JumpOrFinish,
                true, false, event);
    ASSERT_EQ(event.deliveries.size(), oracle.deliveries.size())
        << what;
    for (std::size_t i = 0; i < oracle.deliveries.size(); ++i) {
        ASSERT_EQ(event.deliveries[i], oracle.deliveries[i])
            << what << ": delivery " << i << " diverges (element "
            << oracle.deliveries[i].element << ")";
    }
    EXPECT_EQ(event, oracle) << what;

    AccessResult summary;
    stepper.run(cfg, stream, mods.data(), Recurrence::JumpOrFinish,
                false, false, summary);
    EXPECT_TRUE(summary.deliveries.empty()) << what;
    summary.deliveries = oracle.deliveries;
    EXPECT_EQ(summary, oracle) << what << " (summary aggregates)";
}

std::vector<Request>
sequentialStream(const std::vector<Addr> &addrs)
{
    std::vector<Request> stream;
    stream.reserve(addrs.size());
    for (std::size_t i = 0; i < addrs.size(); ++i)
        stream.push_back({addrs[i], i});
    return stream;
}

TEST(EngineDifferential, EmptyStream)
{
    const MemConfig cfg;
    const XorMatchedMapping map(3, 4);
    expectEnginesAgree(cfg, map, {}, "empty stream");
}

TEST(EngineDifferential, SingleElement)
{
    const MemConfig cfg;
    const XorMatchedMapping map(3, 4);
    expectEnginesAgree(cfg, map, sequentialStream({13}),
                       "one element");
}

TEST(EngineDifferential, SingleModulePileup)
{
    // Every request lands on module 0: the maximally conflicting
    // stream, where the stepper must batch ~T stall cycles per
    // element and the blocked-retire path is hit constantly.
    for (unsigned q : {1u, 2u, 4u}) {
        for (unsigned qp : {1u, 2u}) {
            MemConfig cfg;
            cfg.m = 3;
            cfg.t = 3;
            cfg.inputBuffers = q;
            cfg.outputBuffers = qp;
            const LowOrderInterleave map(3);
            std::vector<Addr> addrs(64);
            for (std::size_t i = 0; i < addrs.size(); ++i)
                addrs[i] = i * 8; // always module 0
            expectEnginesAgree(cfg, map, sequentialStream(addrs),
                               "single-module pileup");
        }
    }
}

TEST(EngineDifferential, TwoModulePingPong)
{
    MemConfig cfg;
    cfg.m = 2;
    cfg.t = 3; // T = 8 >> M = 4: persistent back-pressure
    const LowOrderInterleave map(2);
    std::vector<Addr> addrs;
    for (std::size_t i = 0; i < 48; ++i)
        addrs.push_back((i % 2) * 1 + (i / 2) * 4);
    expectEnginesAgree(cfg, map, sequentialStream(addrs),
                       "two-module ping-pong");
}

TEST(EngineDifferential, RandomStreamsAllShapes)
{
    Rng rng(0xD1FFe9ull);
    unsigned checked = 0;
    for (unsigned m : {1u, 2u, 3u, 4u}) {
        for (unsigned t : {1u, 2u, 3u, 8u}) {
            for (unsigned q : {1u, 2u}) {
                for (unsigned qp : {1u, 2u, 3u}) {
                    MemConfig cfg;
                    cfg.m = m;
                    cfg.t = t;
                    cfg.inputBuffers = q;
                    cfg.outputBuffers = qp;
                    const LowOrderInterleave map(m);
                    for (unsigned rep = 0; rep < 8; ++rep) {
                        // Clustered addresses: small ranges produce
                        // heavy conflicts, large ranges light ones.
                        const Addr range =
                            Addr{1} << (2 + rng.below(8));
                        const std::size_t len = 1 + rng.below(96);
                        std::vector<Addr> addrs(len);
                        for (auto &a : addrs)
                            a = rng.below(range);
                        expectEnginesAgree(
                            cfg, map, sequentialStream(addrs),
                            "random stream");
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_GE(checked, 150u);
}

TEST(EngineDifferential, PermutedElementOrder)
{
    // Out-of-order issue with non-identity element numbering, as
    // the conflict-free planner produces.
    Rng rng(0x0BDE12ull);
    const MemConfig cfg;
    const XorMatchedMapping map(3, 4);
    for (unsigned rep = 0; rep < 16; ++rep) {
        std::vector<Request> stream;
        const std::size_t len = 32 + rng.below(64);
        for (std::size_t i = 0; i < len; ++i)
            stream.push_back({rng.below(1 << 10), i});
        // Fisher-Yates on the issue order; element ids ride along.
        for (std::size_t i = len - 1; i > 0; --i) {
            const std::size_t j = rng.below(i + 1);
            std::swap(stream[i], stream[j]);
        }
        expectEnginesAgree(cfg, map, stream, "permuted order");
    }
}

/**
 * The randomized grid: every mapping kind x strides x lengths x
 * starts, > 1000 scenarios, swept under both tiers.
 */
sim::ScenarioGrid
randomizedGrid(std::uint64_t seed)
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
            // s defaults to lambda - t and Eq. 1 with t -> m needs
            // s >= m, so any m in [t, lambda - t] is valid.
            cfg.mOverride =
                t + static_cast<unsigned>(rng.below(lambda - 2 * t + 1));
        }
        if (kind == MemoryKind::DynamicTuned)
            cfg.dynamicTune = static_cast<unsigned>(rng.below(6));
        if (kind == MemoryKind::PseudoRandom)
            cfg.prandSeed = rng.next();
        grid.mappings.push_back(cfg);
    };

    // Two randomized shapes of each kind.
    for (unsigned rep = 0; rep < 2; ++rep) {
        for (MemoryKind kind :
             {MemoryKind::Matched, MemoryKind::SimpleUnmatched,
              MemoryKind::Sectioned, MemoryKind::DynamicTuned,
              MemoryKind::PseudoRandom}) {
            const unsigned t = 2 + static_cast<unsigned>(rng.below(2));
            const unsigned lambda =
                2 * t + 1 + static_cast<unsigned>(rng.below(3 - rep));
            push(kind, t, lambda);
        }
    }

    // Strides: families 0..7 with random odd multipliers.
    for (unsigned x = 0; x <= 7; ++x)
        for (unsigned k = 0; k < 2; ++k)
            grid.strides.push_back(
                Stride::fromFamily(rng.oddBelow(64), x).value());

    // Lengths: full register, a short vector, and 512 — a whole
    // multiple of every register length on the grid (lambda <= 9),
    // exercising the chunked-by-L planner path.
    grid.lengths = {0, 1 + rng.below(31), 512};

    grid.starts = {0};
    grid.randomStarts = 2;
    grid.seed = rng.next();
    return grid;
}

TEST(EngineDifferential, RandomizedGridOver1000Scenarios)
{
    const sim::ScenarioGrid grid = randomizedGrid(0x5EED5EEDull);
    ASSERT_GE(grid.jobCount(), 1000u)
        << "property budget: the grid must cover >= 1000 scenarios";

    sim::SweepOptions theory;
    theory.tier = TierPolicy::TheoryFirst;

    const sim::SweepReport oracle = sim::SweepEngine().run(grid);
    const sim::SweepReport tested = test::withoutAttribution(
        sim::SweepEngine(theory).run(grid));

    ASSERT_EQ(oracle.jobs(), grid.jobCount());
    ASSERT_EQ(tested.jobs(), oracle.jobs());
    for (std::size_t i = 0; i < oracle.jobs(); ++i) {
        EXPECT_EQ(tested.outcomes[i], oracle.outcomes[i])
            << "scenario " << i << " ("
            << oracle.mappingLabels[oracle.outcomes[i].mappingIndex]
            << " stride " << oracle.outcomes[i].stride << " length "
            << oracle.outcomes[i].length << " a1 "
            << oracle.outcomes[i].a1 << ") diverges";
    }
    EXPECT_EQ(tested, oracle);
}

TEST(EngineDifferential, PlannedAccessesFullResultEquality)
{
    // Beyond the report fields: the complete AccessResult — every
    // delivery timestamp — for planned accesses of each kind, from
    // the oracle and from the evaluator at full detail.
    Rng rng(0xACCE55ull);
    const sim::ScenarioGrid grid = randomizedGrid(0xF00D5EEDull);
    unsigned checked = 0;
    for (const auto &mapping : grid.mappings) {
        const VectorAccessUnit unit(mapping);
        for (unsigned rep = 0; rep < 6; ++rep) {
            const Stride stride = Stride::fromFamily(
                rng.oddBelow(32),
                static_cast<unsigned>(rng.below(8)));
            const std::uint64_t length =
                rep < 3 ? mapping.registerLength()
                        : 1 + rng.below(2 * mapping.registerLength());
            const Addr a1 = rng.below(Addr{1} << 20);
            const AccessPlan plan = unit.plan(a1, stride, length);
            const AccessResult a = unit.execute(plan);
            const AccessResult b = unit.execute(
                plan, nullptr, nullptr, TierPolicy::TheoryFirst);
            EXPECT_EQ(b, a)
                << mapping.describe() << " stride " << stride.value()
                << " length " << length << " a1 " << a1;
            ++checked;
        }
    }
    EXPECT_GE(checked, 60u);
}

} // namespace
} // namespace cfva
