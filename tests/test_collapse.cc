/**
 * @file
 * Tests for the periodic steady-state collapse fast path
 * (memsys/steady_state.h) and the event stepper that takes it
 * (memsys/event_driven.h): differential bit-identity against the
 * stepped oracle, outcome-memo rank canonicalization, and the
 * arity-templated module event heap.
 *
 * The contract under test is absolute: the theory tier's
 * ConflictSolver::solveOrStep — memo replay, recurrence jump, or
 * stepping to the end — must return the oracle's
 * (memsys/memory_system.h) aggregates bit for bit — every stall,
 * every aggregate — and the stepper's recording pass, which takes
 * the same jump, every delivery record with all five timestamps, on
 * every mapping kind and lengths on both sides of the module
 * sequence's period (including L < one period and L = k * period
 * exactly).  The StepperEdges suite drives the stepper itself along
 * the edges of its recurrence logic: lengths around the first
 * snapshot pair, periods around kMaxPeriod, an exhausted snapshot
 * budget, buffer-depth and service-time extremes, and a 10^6-element
 * summary pass — the recording pass bit-identical to the per-cycle
 * oracle, the summary pass carrying the same aggregates.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/access_unit.h"
#include "mapping/dynamic.h"
#include "mapping/interleave.h"
#include "mapping/prand.h"
#include "mapping/xor_matched.h"
#include "mapping/xor_sectioned.h"
#include "memsys/event_driven.h"
#include "memsys/event_queue.h"
#include "memsys/memory_system.h"
#include "memsys/steady_state.h"
#include "test_util.h"
#include "theory/conflict_solver.h"

namespace cfva {
namespace {

std::vector<Request>
strideStream(Addr a1, std::uint64_t stride, std::size_t length)
{
    std::vector<Request> stream;
    stream.reserve(length);
    for (std::size_t i = 0; i < length; ++i)
        stream.push_back({a1 + i * stride, i});
    return stream;
}

/** Premaps @p stream through @p map, element by element. */
std::vector<ModuleId>
premapped(const ModuleMapping &map, const std::vector<Request> &stream)
{
    std::vector<ModuleId> mods(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i)
        mods[i] = map.moduleOf(stream[i].addr);
    return mods;
}

/** The solver's answer for @p stream (premapped to @p mods),
 *  claimed or stepped. */
AccessResult
solveAccess(ConflictSolver &solver, const MemConfig &cfg,
            const std::vector<Request> &stream,
            const std::vector<ModuleId> &mods)
{
    AccessResult r;
    solver.solveOrStep(cfg, stream, mods.data(), r);
    return r;
}

/**
 * Answers @p stream with the theory tier's solver twice (the second
 * answer replays the memo when the first one collapsed) and asserts
 * every answer carries the oracle's aggregates, then steps it once
 * through the stepper's recording pass and asserts that pass equals
 * the oracle delivery by delivery.
 */
void
expectSolverMatchesOracle(const MemConfig &cfg,
                          const ModuleMapping &map,
                          const std::vector<Request> &stream,
                          const std::string &what)
{
    const AccessResult expect = MemorySystem(cfg, map).runSingle(stream);
    const std::vector<ModuleId> mods = premapped(map, stream);
    ConflictSolver solver;
    for (const char *pass : {"first", "repeat"}) {
        EXPECT_EQ(solveAccess(solver, cfg, stream, mods),
                  test::withoutDeliveries(expect))
            << what << " (" << pass << ")";
    }

    EventStepper stepper;
    AccessResult got;
    stepper.run(cfg, stream, mods.data(), true, got);
    ASSERT_EQ(got.deliveries.size(), expect.deliveries.size()) << what;
    for (std::size_t i = 0; i < expect.deliveries.size(); ++i) {
        ASSERT_EQ(got.deliveries[i], expect.deliveries[i])
            << what << ": delivery " << i << " diverges (element "
            << expect.deliveries[i].element << ")";
    }
    EXPECT_EQ(got, expect) << what << " (recording pass)";
}

/** Lengths chosen so the default shapes see streams shorter than
 *  one module-sequence period, exact period multiples, and lengths
 *  crossing a period boundary mid-repetition. */
const std::size_t kLengths[] = {1,  2,  3,  5,   8,   16,
                                31, 32, 33, 100, 128, 257};

TEST(CollapseDifferential, MatchedAllStrideFamilies)
{
    const MemConfig cfg; // m = t = 3
    const XorMatchedMapping map(3, 4);
    for (unsigned x = 0; x <= 7; ++x) {
        for (std::uint64_t sigma : {1, 3, 5}) {
            const std::uint64_t s = sigma << x;
            for (std::size_t len : kLengths) {
                expectSolverMatchesOracle(
                    cfg, map, strideStream(3, s, len),
                    "matched s=" + std::to_string(s)
                        + " L=" + std::to_string(len));
            }
        }
    }
}

TEST(CollapseDifferential, SectionedInAndOutOfWindow)
{
    MemConfig cfg;
    const XorSectionedMapping map(3, 4, 9);
    cfg.m = map.moduleBits();
    cfg.t = 3;
    // Families inside the Theorem 3 window and far outside it.
    for (std::uint64_t s : {1, 8, 16, 48, 512, 1536}) {
        for (std::size_t len : kLengths) {
            expectSolverMatchesOracle(
                cfg, map, strideStream(1, s, len),
                "sectioned s=" + std::to_string(s)
                    + " L=" + std::to_string(len));
        }
    }
}

TEST(CollapseDifferential, SimpleDynamicAndPseudoRandom)
{
    std::mt19937_64 rng(0xC011A95Eull);
    const LowOrderInterleave simple(4);
    const DynamicFieldMapping dynamic(3, 2);
    const GF2LinearMapping prand =
        makePseudoRandomMapping(3, 24, 7);
    struct Case
    {
        const ModuleMapping *map;
        const char *name;
    };
    for (const Case &c :
         {Case{&simple, "simple"}, Case{&dynamic, "dynamic"},
          Case{&prand, "prand"}}) {
        MemConfig cfg;
        cfg.m = c.map->moduleBits();
        cfg.t = 3;
        for (int round = 0; round < 24; ++round) {
            const std::uint64_t s = 1 + rng() % 96;
            const Addr a1 = rng() % 1024;
            const std::size_t len = kLengths[round % std::size(kLengths)];
            expectSolverMatchesOracle(
                cfg, *c.map, strideStream(a1, s, len),
                std::string(c.name) + " a1=" + std::to_string(a1)
                    + " s=" + std::to_string(s)
                    + " L=" + std::to_string(len));
        }
    }
}

TEST(CollapseDifferential, RandomizedShapesAndBuffers)
{
    std::mt19937_64 rng(0x5EEDC0DEull);
    for (int round = 0; round < 48; ++round) {
        MemConfig cfg;
        cfg.t = 1 + rng() % 3;
        cfg.m = cfg.t; // matched mapping wants m = t
        cfg.inputBuffers = 1 + rng() % 2;
        cfg.outputBuffers = 1 + rng() % 2;
        const unsigned s = cfg.t + 1 + rng() % 3;
        const XorMatchedMapping map(cfg.t, s);
        const std::uint64_t stride = 1 + rng() % 64;
        const Addr a1 = rng() % 4096;
        const std::size_t len =
            kLengths[rng() % std::size(kLengths)];
        expectSolverMatchesOracle(
            cfg, map, strideStream(a1, stride, len),
            "shape t=" + std::to_string(cfg.t) + " q="
                + std::to_string(cfg.inputBuffers) + " q'="
                + std::to_string(cfg.outputBuffers) + " s="
                + std::to_string(stride) + " a1="
                + std::to_string(a1) + " L=" + std::to_string(len));
    }
}

TEST(OutcomeMemo, BaseShiftedOrderIsomorphicStreamHits)
{
    // DynamicFieldMapping(m=2, p=0) maps addr -> addr & 3.  Stride
    // 2 from base 0 visits modules 0,2,0,2,...; from base 1 it
    // visits 1,3,1,3,... — the same sequence up to the strictly
    // increasing relabeling {0->1, 2->3}, so the second access must
    // replay the first one's memoized outcome.  T = 4 over two
    // distinct modules keeps the stream conflicted (the interesting
    // case: the collapse actually ran, not the trivial path).
    const DynamicFieldMapping map(2, 0);
    MemConfig cfg;
    cfg.m = 2;
    cfg.t = 2;
    ConflictSolver solver;

    const auto base0 = strideStream(0, 2, 32);
    const auto base1 = strideStream(1, 2, 32);

    const AccessResult first =
        solveAccess(solver, cfg, base0, premapped(map, base0));
    EXPECT_EQ(solver.stats().memoMisses, 1u);
    EXPECT_EQ(solver.stats().collapseHits, 1u);
    EXPECT_EQ(first,
              test::withoutDeliveries(simulateAccess(cfg, map, base0)));
    EXPECT_GT(first.stallCycles, 0u) << "stream should conflict";
    const FastPathStats afterMiss = solver.stats();

    const AccessResult shifted =
        solveAccess(solver, cfg, base1, premapped(map, base1));
    EXPECT_EQ(solver.stats().memoHits, 1u)
        << "base-shifted rank-isomorphic stream must replay";
    EXPECT_EQ(shifted,
              test::withoutDeliveries(simulateAccess(cfg, map, base1)));

    // Same stream again: the identity relabeling also hits.
    const AccessResult again =
        solveAccess(solver, cfg, base0, premapped(map, base0));
    EXPECT_EQ(solver.stats().memoHits, 2u);
    EXPECT_EQ(again, first);
    EXPECT_EQ(solver.stats().collapseHits, 1u);
    EXPECT_EQ(solver.stats().collapsePrefixCycles,
              afterMiss.collapsePrefixCycles);
    EXPECT_EQ(solver.stats().steppedCycles, afterMiss.steppedCycles);

    // A hit answers from the memo's aggregates alone.
    const std::vector<ModuleId> mods1 = premapped(map, base1);
    AccessResult brief;
    EXPECT_TRUE(solver.solveOrStep(cfg, base1, mods1.data(), brief));
    EXPECT_EQ(solver.stats().memoHits, 3u);
    EXPECT_EQ(solver.stats().collapseHits, 1u);
    EXPECT_TRUE(brief.deliveries.empty());
    EXPECT_EQ(brief, shifted);
}

TEST(OutcomeMemo, XorBaseShiftReordersModulesAndMisses)
{
    // On an XOR mapping a base shift permutes the module sequence
    // non-monotonically, so the relabeling is not order-preserving
    // and the memo must NOT serve the shifted stream from the
    // cache (correctness is then re-proven by the collapse path —
    // checked against the oracle).
    const XorMatchedMapping map(3, 4);
    const MemConfig cfg;
    ConflictSolver solver;

    const auto base0 = strideStream(0, 2, 64);
    const auto base3 = strideStream(3, 2, 64);
    EXPECT_EQ(solveAccess(solver, cfg, base0, premapped(map, base0)),
              test::withoutDeliveries(simulateAccess(cfg, map, base0)));
    const std::uint64_t hitsBefore = solver.stats().memoHits;
    EXPECT_EQ(solveAccess(solver, cfg, base3, premapped(map, base3)),
              test::withoutDeliveries(simulateAccess(cfg, map, base3)));
    EXPECT_EQ(solver.stats().memoHits, hitsBefore)
        << "XOR-reordered module sequence must not hit the memo";
}

TEST(OutcomeMemo, OversizeStreamsBypassTheMemo)
{
    // Streams longer than kMaxLen skip the memo (lookup and
    // store) but may still collapse.
    const LowOrderInterleave map(2);
    MemConfig cfg;
    cfg.m = 2;
    cfg.t = 3;
    const auto stream =
        strideStream(0, 1, OutcomeMemo::kMaxLen + 64);
    const std::vector<ModuleId> mods = premapped(map, stream);

    ConflictSolver solver;
    AccessResult result;
    ASSERT_TRUE(solver.solveOrStep(cfg, stream, mods.data(), result));
    EXPECT_EQ(solver.stats().collapseHits, 1u);
    EXPECT_EQ(solver.stats().memoMisses, 0u);
    EXPECT_EQ(result,
              test::withoutDeliveries(simulateAccess(cfg, map, stream)));

    // Nothing was stored: the same stream makes no lookup and jumps
    // again.
    AccessResult again;
    ASSERT_TRUE(solver.solveOrStep(cfg, stream, mods.data(), again));
    EXPECT_EQ(solver.stats().collapseHits, 2u);
    EXPECT_EQ(solver.stats().memoHits + solver.stats().memoMisses, 0u);
    EXPECT_EQ(again, result);
}

/**
 * Steps @p stream (premapped to @p mods) on a fresh EventStepper with
 * recurrence on, at full and at summary detail, and holds it to the
 * per-cycle oracle: the full pass bit-identical, the summary pass
 * with no deliveries and the full pass's aggregates.  Returns
 * whether the pass jumped.
 */
bool
expectStepperMatchesOracle(const MemConfig &cfg,
                           const ModuleMapping &map,
                           const std::vector<Request> &stream,
                           const std::vector<ModuleId> &mods,
                           const std::string &what)
{
    const AccessResult expect = simulateAccess(cfg, map, stream);

    EventStepper stepper;
    AccessResult full;
    const bool jumped =
        stepper.run(cfg, stream, mods.data(), true, full);
    EXPECT_EQ(full, expect) << what;

    AccessResult brief;
    EXPECT_EQ(stepper.run(cfg, stream, mods.data(), false, brief),
              jumped)
        << what;
    EXPECT_TRUE(brief.deliveries.empty()) << what;
    brief.deliveries = full.deliveries;
    EXPECT_EQ(brief, full) << what << " (summary aggregates)";
    return jumped;
}

/**
 * Steps @p stream (premapped to @p mods) once at full detail on a
 * fresh EventStepper and holds it to a pass that finished without a
 * jump: the per-cycle oracle's result, with every cycle up to the
 * last delivery stepped.
 */
void
expectFinishedWithoutJump(const MemConfig &cfg,
                          const ModuleMapping &map,
                          const std::vector<Request> &stream,
                          const std::vector<ModuleId> &mods,
                          const std::string &what)
{
    EventStepper stepper;
    AccessResult finished;
    EXPECT_FALSE(stepper.run(cfg, stream, mods.data(), true, finished))
        << what;
    EXPECT_EQ(finished, simulateAccess(cfg, map, stream)) << what;
    EXPECT_EQ(stepper.steppedCycles(), finished.lastDelivery + 1) << what;
}

/** Smallest p with mods[i] == mods[i - p] for all i >= p, by
 *  definition (mods.size() when there is none). */
std::size_t
bruteForcePeriod(const std::vector<ModuleId> &mods)
{
    for (std::size_t p = 1; p < mods.size(); ++p) {
        bool periodic = true;
        for (std::size_t i = p; i < mods.size() && periodic; ++i)
            periodic = mods[i] == mods[i - p];
        if (periodic)
            return p;
    }
    return mods.size();
}

/** One unit configuration per mapping kind (t = 2, lambda = 6). */
std::vector<VectorUnitConfig>
allKinds()
{
    std::vector<VectorUnitConfig> cfgs;
    VectorUnitConfig base;
    base.t = 2;
    base.lambda = 6;
    for (MemoryKind kind :
         {MemoryKind::Matched, MemoryKind::Sectioned,
          MemoryKind::SimpleUnmatched, MemoryKind::DynamicTuned,
          MemoryKind::PseudoRandom}) {
        VectorUnitConfig cfg = base;
        cfg.kind = kind;
        if (kind == MemoryKind::SimpleUnmatched)
            cfg.mOverride = 3;
        if (kind == MemoryKind::DynamicTuned)
            cfg.dynamicTune = 2;
        cfgs.push_back(cfg);
    }
    return cfgs;
}

// Every mapping kind, strides in and out of each window, lengths
// around the register length (L = 64 here) and around the first
// snapshot pair of each periodic stream: below it (2p, where the
// stepper cannot snapshot twice), at it (2p+1) and just before the
// third snapshot (3p-1).
TEST(StepperEdges, LengthsAroundRegisterAndFirstSnapshotPair)
{
    std::uint64_t jumps = 0;
    for (const VectorUnitConfig &cfg : allKinds()) {
        const VectorAccessUnit unit(cfg);
        for (unsigned family = 0; family <= 8; family += 2) {
            const Stride stride = Stride::fromFamily(3, family);
            std::vector<std::size_t> lengths = {1, 2, 63, 64, 65, 200};
            const AccessPlan probe = unit.plan(5, stride, 200);
            const std::size_t p =
                bruteForcePeriod(premapped(unit.mapping(), probe.stream));
            if (p < 60) {
                for (std::size_t len : {2 * p, 2 * p + 1, 3 * p - 1})
                    lengths.push_back(len);
            }
            for (std::size_t len : lengths) {
                const AccessPlan plan = unit.plan(5, stride, len);
                jumps += expectStepperMatchesOracle(
                    unit.memConfig(), unit.mapping(), plan.stream,
                    premapped(unit.mapping(), plan.stream),
                    cfg.describe() + " family=" + std::to_string(family)
                        + " L=" + std::to_string(len));
            }
        }
    }
    EXPECT_GT(jumps, 0u);
}

/** A raw module sequence as a stream: under LowOrderInterleave the
 *  address is its own module number. */
std::vector<Request>
rawStream(const std::vector<ModuleId> &mods)
{
    std::vector<Request> stream(mods.size());
    for (std::size_t i = 0; i < mods.size(); ++i)
        stream[i] = {mods[i], i};
    return stream;
}

// Smallest periods on both sides of kMaxPeriod: a conflicted
// rotation over six of 16 modules with one marker module per period.
// Up to kMaxPeriod the stepper snapshots and jumps; one past it the
// pass never snapshots and steps the whole stream.
TEST(StepperEdges, PeriodsAroundMaxPeriod)
{
    MemConfig cfg;
    cfg.m = 4;
    cfg.t = 3;
    cfg.inputBuffers = 1;
    cfg.outputBuffers = 1;
    const LowOrderInterleave map(cfg.m);
    for (std::size_t p : {EventStepper::kMaxPeriod - 1,
                          EventStepper::kMaxPeriod,
                          EventStepper::kMaxPeriod + 1}) {
        std::vector<ModuleId> mods;
        for (std::size_t i = 0; i < 3 * p + 5; ++i)
            mods.push_back(i % p == p - 1 ? 15 : (i % p) % 6);
        ASSERT_EQ(bruteForcePeriod(mods), p);
        const std::vector<Request> stream = rawStream(mods);
        const std::string what = "period " + std::to_string(p);

        const bool jumped =
            expectStepperMatchesOracle(cfg, map, stream, mods, what);
        EXPECT_EQ(jumped, p <= EventStepper::kMaxPeriod) << what;
        if (p > EventStepper::kMaxPeriod)
            expectFinishedWithoutJump(cfg, map, stream, mods, what);
    }
}

// The smallest-period search reads a prefix of 2 * kMaxPeriod
// elements and then checks its period against the rest: a stream
// that repeats 0,0,1 well past that prefix and then changes pattern
// has no period at all, so the stepper must not snapshot (a jump
// would extrapolate the prefix's pattern over the whole stream) and
// steps the whole stream.
TEST(StepperEdges, PeriodicPrefixBeyondTheSearchWindow)
{
    MemConfig cfg;
    cfg.m = 1;
    cfg.t = 2;
    cfg.inputBuffers = 2;
    cfg.outputBuffers = 1;
    const LowOrderInterleave map(cfg.m);
    std::vector<ModuleId> mods;
    for (std::size_t i = 0; i < 3 * EventStepper::kMaxPeriod; ++i)
        mods.push_back(i % 3 == 2 ? 1 : 0);
    for (std::size_t i = 0; i < 600; ++i)
        mods.push_back(i % 3 == 0 ? 0 : 1);
    const std::vector<Request> stream = rawStream(mods);

    EXPECT_FALSE(expectStepperMatchesOracle(cfg, map, stream, mods,
                                            "periodic prefix"));
    expectFinishedWithoutJump(cfg, map, stream, mods, "periodic prefix");
}

// A backlog that grows every period (modules 0,0,1 with T = 2 put
// four service cycles of demand on module 0 every three issue
// cycles) into a deep input buffer never lets the state recur before
// kMaxSnapshots snapshots are spent.  The stepper must then finish
// the stream without a jump.
TEST(StepperEdges, ExhaustedSnapshotBudgetFinishesWithoutJump)
{
    MemConfig cfg;
    cfg.m = 1;
    cfg.t = 1;
    cfg.inputBuffers = 128;
    cfg.outputBuffers = 1;
    const LowOrderInterleave map(cfg.m);
    std::vector<ModuleId> mods;
    for (std::size_t i = 0; i < 200 * 3 + 1; ++i)
        mods.push_back(i % 3 == 2 ? 1 : 0);
    const std::vector<Request> stream = rawStream(mods);

    EXPECT_FALSE(expectStepperMatchesOracle(cfg, map, stream, mods,
                                            "growing backlog"));
    expectFinishedWithoutJump(cfg, map, stream, mods, "growing backlog");

    // Through the solver the declined pass is accounted as stepped
    // work, and nothing reaches the memo: the same stream misses
    // again.
    ConflictSolver solver;
    AccessResult viaSolver;
    EXPECT_FALSE(solver.solveOrStep(cfg, stream, mods.data(), viaSolver));
    EXPECT_EQ(solver.stats().collapseHits, 0u);
    EXPECT_EQ(solver.stats().steppedCycles, viaSolver.lastDelivery + 1);
    AccessResult again;
    EXPECT_FALSE(solver.solveOrStep(cfg, stream, mods.data(), again));
    EXPECT_EQ(solver.stats().memoHits, 0u);
    EXPECT_EQ(solver.stats().memoMisses, 2u);
}

// Buffer depths q, q' in {1, 2, 4} at the smallest and the largest
// service time the configuration validator accepts (T = 2^1 and
// T = 2^8), over an interleaved, an XOR-matched and a pseudo-random
// mapping.
TEST(StepperEdges, BufferDepthsAndServiceTimeExtremes)
{
    for (unsigned t : {1u, 8u}) {
        const unsigned m = t;
        const LowOrderInterleave interleave(m);
        const XorMatchedMapping xorMatched(m, m + 1);
        const GF2LinearMapping prand =
            makePseudoRandomMapping(m, 24, 11);
        for (unsigned q : {1u, 2u, 4u}) {
            for (unsigned qOut : {1u, 2u, 4u}) {
                MemConfig cfg;
                cfg.m = m;
                cfg.t = t;
                cfg.inputBuffers = q;
                cfg.outputBuffers = qOut;
                for (const ModuleMapping *map :
                     {static_cast<const ModuleMapping *>(&interleave),
                      static_cast<const ModuleMapping *>(&xorMatched),
                      static_cast<const ModuleMapping *>(&prand)}) {
                    for (std::uint64_t stride : {1u, 6u, 64u}) {
                        const std::vector<Request> stream =
                            strideStream(7, stride, 65);
                        expectStepperMatchesOracle(
                            cfg, *map, stream,
                            premapped(*map, stream),
                            map->name() + " t=" + std::to_string(t)
                                + " q=" + std::to_string(q) + " q'="
                                + std::to_string(qOut) + " s="
                                + std::to_string(stride));
                    }
                }
            }
        }
    }
}

// One 10^6-element conflicted stream (family 6, outside the matched
// window) under summary detail: the pass jumps, writes no delivery,
// and carries the per-cycle oracle's aggregates.
TEST(StepperEdges, MillionElementConflictedSummary)
{
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::Matched;
    cfg.t = 3;
    cfg.lambda = 7;
    const VectorAccessUnit unit(cfg);
    const AccessPlan plan = unit.plan(16, Stride(64), 1000000);
    ASSERT_FALSE(plan.expectConflictFree);
    const std::vector<ModuleId> mods =
        premapped(unit.mapping(), plan.stream);

    EventStepper stepper;
    AccessResult brief;
    EXPECT_TRUE(stepper.run(unit.memConfig(), plan.stream, mods.data(),
                            false, brief));
    EXPECT_TRUE(brief.deliveries.empty());
    EXPECT_LT(stepper.steppedCycles(), brief.latency / 100);

    AccessResult expect =
        simulateAccess(unit.memConfig(), unit.mapping(), plan.stream);
    EXPECT_FALSE(expect.conflictFree);
    expect.deliveries.clear();
    EXPECT_EQ(brief, expect);
}

TEST(EventHeap, QuaternaryMatchesBinaryPopOrder)
{
    // The pop sequence of a d-ary heap over the strict total order
    // (time, module) is arity-invariant.  Drive a binary and the
    // production 4-ary heap through identical randomized
    // push/pop interleavings and require identical pop streams.
    std::mt19937_64 rng(0x4EA9u);
    for (int round = 0; round < 40; ++round) {
        const ModuleId modules =
            static_cast<ModuleId>(1 + rng() % 64);
        BasicModuleEventHeap<2> h2(modules);
        BasicModuleEventHeap<4> h4(modules);
        for (int op = 0; op < 400; ++op) {
            const bool doPop = !h2.empty() && (rng() % 2 == 0);
            if (doPop) {
                const ModuleEvent a = h2.pop();
                const ModuleEvent b = h4.pop();
                ASSERT_EQ(a.time, b.time);
                ASSERT_EQ(a.module, b.module);
                continue;
            }
            const ModuleId m =
                static_cast<ModuleId>(rng() % modules);
            if (h2.contains(m))
                continue; // one live event per module
            // Few distinct times so module-id tie-breaks are hot.
            const Cycle time = rng() % 8;
            h2.push(m, time);
            h4.push(m, time);
        }
        ASSERT_EQ(h2.size(), h4.size());
        while (!h2.empty()) {
            const ModuleEvent a = h2.pop();
            const ModuleEvent b = h4.pop();
            ASSERT_EQ(a.time, b.time);
            ASSERT_EQ(a.module, b.module);
        }
        EXPECT_TRUE(h4.empty());
    }
}

} // namespace
} // namespace cfva
