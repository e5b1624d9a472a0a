/**
 * @file
 * Tests for the tiered evaluator (src/theory/theory_backend.{h,cc}).
 *
 * The theory tier's whole contract is bit-identity: every access it
 * answers must carry exactly the aggregates the stepped oracle's
 * AccessResult carries — latency, stalls, first issue, last delivery
 * — and no Delivery record, since the oracle is their one source.
 * The randomized audit grid here drives all mapping kinds across
 * strides inside and outside the paper's windows, lengths around
 * the register size, and both port counts, comparing the TheoryFirst
 * tier against pure simulation without its deliveries and requiring
 * a nonzero claim rate.  Alongside it: unit tests of the claim/fallback
 * mechanics, sweep-level AuditBoth runs, and property tests pinning
 * the theory identities the fast path leans on.
 */

#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/access_unit.h"
#include "mapping/interleave.h"
#include "memsys/backend_cache.h"
#include "memsys/event_driven.h"
#include "sim/sweep_engine.h"
#include "test_util.h"
#include "theory/theory.h"
#include "theory/theory_backend.h"

namespace cfva {
namespace {

VectorUnitConfig
matchedConfig()
{
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::Matched;
    cfg.t = 2;
    cfg.lambda = 6;
    return cfg;
}

/** The stepped oracle over @p unit's mapping. */
std::unique_ptr<MemorySystem>
oracleOver(const VectorAccessUnit &unit)
{
    return std::make_unique<MemorySystem>(unit.memConfig(),
                                          unit.mapping());
}

TEST(TheoryBackend, ClaimedStreamIsBitIdenticalToSimulation)
{
    const VectorAccessUnit unit(matchedConfig());
    // Stride 1 is deep inside the Theorem 1 window: the plan is
    // conflict free and the claim must go through.
    const AccessPlan plan = unit.plan(0, Stride(1), 64);
    ASSERT_TRUE(plan.expectConflictFree);

    TheoryBackend tb(unit.memConfig(), unit.mapping());
    const AccessResult claimed = tb.runSingle(plan.stream);
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_EQ(tb.stats().claimed, 1u);
    EXPECT_EQ(tb.stats().fallback, 0u);
    EXPECT_TRUE(claimed.conflictFree);
    EXPECT_EQ(claimed.latency,
              theory::minimumLatency(
                  64, unit.memConfig().serviceCycles()));
    EXPECT_EQ(claimed,
              test::withoutDeliveries(
                  oracleOver(unit)->runSingle(plan.stream)))
        << "claimed result diverges from the oracle";
}

TEST(TheoryBackend, ConflictedStreamIsSolvedAnalytically)
{
    const VectorAccessUnit unit(matchedConfig());
    // Family 6 is outside the matched window [0, s=4]: the
    // canonical-order stream conflicts, so the O(L) proof refuses —
    // but the conflict pattern is exactly periodic, and the
    // steady-state solver must close its form and claim it.
    const AccessPlan plan = unit.plan(0, Stride(64), 64);
    ASSERT_FALSE(plan.expectConflictFree);

    TheoryBackend tb(unit.memConfig(), unit.mapping());
    const AccessResult viaTier = tb.runSingle(plan.stream);
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_EQ(tb.lastReason(), FallbackReason::None);
    EXPECT_EQ(tb.stats().claimed, 1u);
    EXPECT_EQ(tb.stats().fallback, 0u);
    EXPECT_EQ(tb.fastPathStats().collapseHits, 1u);

    EXPECT_EQ(viaTier, test::withoutDeliveries(
                           oracleOver(unit)->runSingle(plan.stream)));
    EXPECT_FALSE(viaTier.conflictFree);
    EXPECT_GT(viaTier.stallCycles, 0u);
}

TEST(TheoryBackend, ProofClaimsBeforeTheSolver)
{
    const VectorAccessUnit unit(matchedConfig());
    const AccessPlan plan = unit.plan(0, Stride(1), 64);
    TheoryBackend tb(unit.memConfig(), unit.mapping());

    // runSingle() ignores the planner's certification and tries the
    // O(L) proof first, so a conflict-free stream is claimed by it —
    // no memo lookup, no stepper pass — with the bit-identical
    // schedule.
    const AccessResult proven = tb.runSingle(plan.stream);
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_EQ(tb.stats().claimed, 1u);
    EXPECT_EQ(tb.fastPathStats(), FastPathStats{});
    EXPECT_EQ(proven, test::withoutDeliveries(
                          oracleOver(unit)->runSingle(plan.stream)));
    EXPECT_TRUE(proven.conflictFree);
}

/** A pseudo-random unit and a plan it can neither prove nor solve:
 *  an aperiodic, conflicted module sequence. */
struct DeclinedCase
{
    VectorAccessUnit unit;
    AccessPlan plan;

    DeclinedCase()
        : unit([] {
              VectorUnitConfig cfg = matchedConfig();
              cfg.kind = MemoryKind::PseudoRandom;
              return cfg;
          }()),
          plan(unit.plan(0, Stride(3), 64))
    {
    }
};

TEST(TheoryBackend, AperiodicConflictedStreamFallsBack)
{
    // A pseudo-random mapping's module sequence has no short
    // period, so neither the proof nor the solver can close a
    // conflicted stream's form: it is stepped, and the taxonomy
    // names it Conflicted.
    const DeclinedCase c;
    TheoryBackend tb(c.unit.memConfig(), c.unit.mapping());
    const AccessResult viaTier = tb.runSingle(c.plan.stream);
    ASSERT_FALSE(tb.lastClaimed());
    EXPECT_EQ(tb.lastReason(), FallbackReason::Conflicted);
    EXPECT_EQ(viaTier, test::withoutDeliveries(
                           oracleOver(c.unit)->runSingle(c.plan.stream)));
    EXPECT_EQ(tb.stats().fallback, 1u);
    EXPECT_EQ(tb.fastPathStats().collapseHits, 0u);
}

// A declined stream costs one memo lookup and one stepper pass, and
// its answer is the aggregates without any delivery buffer: the pass
// that looked for a recurrence is also the answer.
TEST(TheoryBackend, DeclinedSummaryAccessIsSteppedOnce)
{
    const DeclinedCase c;
    ASSERT_FALSE(c.plan.expectConflictFree);
    ASSERT_LE(c.plan.stream.size(), OutcomeMemo::kMaxLen);

    BackendCache cache;
    DeliveryArena arena;
    TierCounters tc;
    const AccessResult r = c.unit.execute(
        c.plan, &arena, &cache, TierPolicy::TheoryFirst, &tc);
    ASSERT_EQ(tc.fallback, 1u) << "the stream should be declined";
    EXPECT_EQ(tc.lastReason, FallbackReason::Conflicted);

    const FastPathStats fp = cache.fastPathStats();
    EXPECT_EQ(fp.memoHits + fp.memoMisses, 1u);
    EXPECT_EQ(arena.acquires(), 0u);
    EXPECT_TRUE(r.deliveries.empty());
    EXPECT_GT(fp.steppedCycles, 0u);
    EXPECT_LE(fp.steppedCycles, r.latency);

    const AccessResult ref = oracleOver(c.unit)->runSingle(c.plan.stream);
    EXPECT_EQ(r.firstIssue, ref.firstIssue);
    EXPECT_EQ(r.lastDelivery, ref.lastDelivery);
    EXPECT_EQ(r.latency, ref.latency);
    EXPECT_EQ(r.stallCycles, ref.stallCycles);
    EXPECT_EQ(r.conflictFree, ref.conflictFree);
    EXPECT_FALSE(r.conflictFree);
}

// A multi-port access whose ports share modules costs one premap per
// port and one P-port stepper pass over those premaps, and its
// answer is the aggregates without any delivery buffer.
TEST(TheoryBackend, MultiPortSharedSummaryAccessIsSteppedOnce)
{
    const VectorAccessUnit unit(matchedConfig());
    // Ports 0 and 1 issue the same stream, so the disjointness check
    // stops at port 1 and never reaches port 2.
    const AccessPlan shared = unit.plan(0, Stride(1), 64);
    std::vector<std::vector<Request>> streams = {
        shared.stream, shared.stream,
        unit.plan(Addr{1} << 20, Stride(3), 64).stream};

    BackendCache cache;
    DeliveryArena arena;
    const auto check = [&](const char *what) {
        const FastPathStats before = cache.fastPathStats();
        TierCounters tc;
        const MultiPortResult r = unit.executePorts(
            streams, &arena, &cache, TierPolicy::TheoryFirst, &tc);
        EXPECT_EQ(tc.fallback, 1u) << what;
        EXPECT_EQ(tc.lastReason, FallbackReason::MultiPort) << what;

        const FastPathStats fp = cache.fastPathStats();
        EXPECT_EQ(fp.memoHits + fp.memoMisses, 0u) << what;
        EXPECT_EQ(fp.collapseHits, 0u) << what;
        EXPECT_EQ(fp.steppedCycles - before.steppedCycles, r.makespan)
            << what;
        EXPECT_EQ(arena.acquires(), 0u) << what;
        for (const AccessResult &port : r.ports)
            EXPECT_TRUE(port.deliveries.empty()) << what;

        EXPECT_EQ(r, test::withoutDeliveries(oracleOver(unit)->run(streams)))
            << what;
        return r;
    };
    const MultiPortResult first = check("stride-3 port 2");

    // Only port 2 changes (same length): its premap must be redone,
    // not read back from the previous access.
    streams[2] = unit.plan(Addr{1} << 20, Stride(4), 64).stream;
    const MultiPortResult second = check("stride-4 port 2");
    EXPECT_NE(second.ports[2], first.ports[2]);
}

TEST(TheoryBackend, EmptyStreamIsClaimedTrivially)
{
    const VectorAccessUnit unit(matchedConfig());
    TheoryBackend tb(unit.memConfig(), unit.mapping());
    const AccessResult empty = tb.runSingle({});
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_EQ(empty, test::withoutDeliveries(oracleOver(unit)->runSingle({})));
    EXPECT_TRUE(empty.conflictFree);
    EXPECT_EQ(empty.latency, 0u);
    EXPECT_TRUE(empty.deliveries.empty());
}

TEST(TheoryBackend, SinglePortRunLiftsLikeTheEngines)
{
    const VectorAccessUnit unit(matchedConfig());
    const AccessPlan plan = unit.plan(0, Stride(1), 64);
    TheoryBackend tb(unit.memConfig(), unit.mapping());

    const MultiPortResult lifted = tb.runPorts({plan.stream});
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_EQ(lifted,
              test::withoutDeliveries(oracleOver(unit)->run({plan.stream})));
    ASSERT_EQ(lifted.ports.size(), 1u);
    EXPECT_TRUE(lifted.ports[0].conflictFree);

    // A one-stream runPorts carries the oracle's makespan and
    // aggregates, whether the proof claims the stream, the solver
    // claims it, or it is stepped.
    const auto expectLiftAgrees = [](const VectorAccessUnit &u,
                                     const std::vector<Request> &stream,
                                     bool claimed, const char *what) {
        TheoryBackend backend(u.memConfig(), u.mapping());
        const MultiPortResult r = backend.runPorts({stream});
        EXPECT_EQ(backend.lastClaimed(), claimed) << what;
        EXPECT_EQ(r, test::withoutDeliveries(oracleOver(u)->run({stream})))
            << what;
    };
    expectLiftAgrees(unit, plan.stream, true, "proven");
    expectLiftAgrees(unit, unit.plan(0, Stride(64), 64).stream, true,
                     "solved");
    const DeclinedCase declined;
    expectLiftAgrees(declined.unit, declined.plan.stream, false,
                     "stepped");
}

TEST(TheoryBackend, MultiPortSharedModulesFallBack)
{
    const VectorAccessUnit unit(matchedConfig());
    const AccessPlan plan = unit.plan(0, Stride(1), 64);
    TheoryBackend tb(unit.memConfig(), unit.mapping());

    // Two ports issuing the same stream contend for every module:
    // the schedule is not single-port-decomposable and is stepped.
    const std::vector<std::vector<Request>> streams = {plan.stream,
                                                       plan.stream};
    const MultiPortResult viaTier = tb.runPorts(streams);
    EXPECT_FALSE(tb.lastClaimed());
    EXPECT_EQ(tb.lastReason(), FallbackReason::MultiPort);
    EXPECT_EQ(tb.stats().fallback, 1u);
    EXPECT_EQ(viaTier, test::withoutDeliveries(oracleOver(unit)->run(streams)));
}

/**
 * Two module-disjoint port streams of @p unit, or none when no
 * second base below 4096 is disjoint.  Family 6 confines each port
 * to a single module; the second base lands on a different module,
 * so the ports are provably disjoint and a claim decomposes into two
 * single-port answers.
 */
std::vector<std::vector<Request>>
disjointPorts(const VectorAccessUnit &unit)
{
    const AccessPlan p0 = unit.plan(0, Stride(64), 32);
    const ModuleId mod0 = unit.mapping().moduleOf(p0.stream[0].addr);
    for (Addr base = 1; base < 4096; ++base) {
        const AccessPlan p1 = unit.plan(base, Stride(64), 32);
        bool disjoint = true;
        for (const Request &r : p1.stream) {
            if (unit.mapping().moduleOf(r.addr) == mod0) {
                disjoint = false;
                break;
            }
        }
        if (disjoint)
            return {p0.stream, p1.stream};
    }
    return {};
}

TEST(TheoryBackend, MultiPortDisjointPortsAreClaimed)
{
    const VectorAccessUnit unit(matchedConfig());
    const std::vector<std::vector<Request>> streams = disjointPorts(unit);
    ASSERT_EQ(streams.size(), 2u) << "no disjoint base below 4096";

    TheoryBackend tb(unit.memConfig(), unit.mapping());
    const MultiPortResult viaTier = tb.runPorts(streams);
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_EQ(tb.lastReason(), FallbackReason::None);
    EXPECT_EQ(tb.stats().claimed, 1u);
    const MultiPortResult oracle = oracleOver(unit)->run(streams);
    EXPECT_EQ(viaTier, test::withoutDeliveries(oracle));

    // The delivery-level check: the stepper's recording pass over
    // the same ports, port tags included, record by record.
    std::vector<std::vector<ModuleId>> mods(streams.size());
    for (std::size_t p = 0; p < streams.size(); ++p) {
        for (const Request &r : streams[p])
            mods[p].push_back(unit.mapping().moduleOf(r.addr));
    }
    EXPECT_EQ(EventStepper().runPorts(unit.memConfig(), streams, mods,
                                      true),
              oracle);
}

// Two module-disjoint ports whose conflicted module sequences
// never recur (rank-distinct random walks over modules {0, 1} and
// {2, 3}): neither port can be claimed, so the access falls back as
// MultiPort, and each port is answered by its own single pass that
// steps it to the end — never again in a P-port pass.
TEST(TheoryBackend, MultiPortDisjointUnclaimedPortsAreSteppedAlone)
{
    MemConfig cfg;
    cfg.m = 2;
    cfg.t = 3;
    const LowOrderInterleave map(cfg.m);
    Rng rng(0xD15Bull);
    std::vector<std::vector<Request>> streams(2);
    for (unsigned p = 0; p < 2; ++p) {
        for (std::size_t i = 0; i < 64 + 16 * p; ++i)
            streams[p].push_back({2 * p + rng.below(2), i});
    }

    TheoryBackend tb(cfg, map);
    const MultiPortResult viaTier = tb.runPorts(streams);
    EXPECT_EQ(viaTier,
              test::withoutDeliveries(MemorySystem(cfg, map).run(streams)));
    EXPECT_FALSE(tb.lastClaimed());
    EXPECT_EQ(tb.lastReason(), FallbackReason::MultiPort);

    const FastPathStats &fp = tb.fastPathStats();
    EXPECT_EQ(fp.collapseHits, 0u);
    EXPECT_EQ(fp.memoMisses, 2u);
    EXPECT_EQ(fp.steppedCycles, viaTier.ports[0].lastDelivery + 1
                                    + viaTier.ports[1].lastDelivery + 1);
}

// The stepped oracle is the one source of Delivery records: at the
// library's default arguments, every answer of the evaluator — a
// certified claim, a solver claim from a memo miss and from a hit, a
// declined stream, module-sharing and module-disjoint ports, and a
// direct runSingle() proof — carries the oracle's aggregates, no
// Delivery, and takes no buffer from the arena.
TEST(TheoryBackend, EvaluatorAnswersAggregatesOnly)
{
    const VectorAccessUnit unit(matchedConfig());
    const DeclinedCase declined;
    BackendCache cache;
    DeliveryArena arena;
    const auto single = [&](const VectorAccessUnit &u,
                            const AccessPlan &plan, const char *what) {
        TierCounters tc;
        const AccessResult r = u.execute(plan, &arena, &cache,
                                         TierPolicy::TheoryFirst, &tc);
        EXPECT_TRUE(r.deliveries.empty()) << what;
        EXPECT_EQ(r, test::withoutDeliveries(
                         oracleOver(u)->runSingle(plan.stream)))
            << what;
        return tc;
    };
    const auto ports = [&](const std::vector<std::vector<Request>> &streams,
                           const char *what) {
        TierCounters tc;
        const MultiPortResult r = unit.executePorts(
            streams, &arena, &cache, TierPolicy::TheoryFirst, &tc);
        for (const AccessResult &port : r.ports)
            EXPECT_TRUE(port.deliveries.empty()) << what;
        EXPECT_EQ(r, test::withoutDeliveries(oracleOver(unit)->run(streams)))
            << what;
        return tc;
    };

    const AccessPlan certified = unit.plan(0, Stride(1), 64);
    ASSERT_TRUE(certified.expectConflictFree);
    EXPECT_EQ(single(unit, certified, "certified").claimed, 1u);

    const AccessPlan solved = unit.plan(0, Stride(64), 64);
    ASSERT_FALSE(solved.expectConflictFree);
    EXPECT_EQ(single(unit, solved, "solver miss").claimed, 1u);
    EXPECT_EQ(cache.fastPathStats().memoMisses, 1u);
    EXPECT_EQ(cache.fastPathStats().collapseHits, 1u);
    EXPECT_EQ(single(unit, solved, "solver hit").claimed, 1u);
    EXPECT_EQ(cache.fastPathStats().memoHits, 1u);

    EXPECT_EQ(single(declined.unit, declined.plan, "declined").fallback,
              1u);

    EXPECT_EQ(ports({certified.stream, certified.stream}, "shared")
                  .lastReason,
              FallbackReason::MultiPort);
    const std::vector<std::vector<Request>> disjoint =
        disjointPorts(unit);
    ASSERT_EQ(disjoint.size(), 2u);
    EXPECT_EQ(ports(disjoint, "disjoint").claimed, 1u);

    TheoryBackend tb(unit.memConfig(), unit.mapping());
    const AccessResult proven = tb.runSingle(certified.stream);
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_TRUE(proven.deliveries.empty());
    EXPECT_EQ(proven, test::withoutDeliveries(
                          oracleOver(unit)->runSingle(certified.stream)));

    EXPECT_EQ(arena.acquires(), 0u);
}

TEST(TheoryBackend, CacheKeepsTiersSeparate)
{
    const VectorAccessUnit unit(matchedConfig());
    BackendCache cache;
    MemorySystem &sim =
        cache.backendFor(unit.memConfig(), unit.mapping());
    TheoryBackend &tb =
        cache.theoryBackendFor(unit.memConfig(), unit.mapping());
    EXPECT_NE(static_cast<void *>(&sim), static_cast<void *>(&tb));
    EXPECT_EQ(cache.size(), 2u);

    // Repeat lookups hit their own entries.
    EXPECT_EQ(&cache.theoryBackendFor(unit.memConfig(),
                                      unit.mapping()),
              &tb);
    EXPECT_EQ(&cache.backendFor(unit.memConfig(), unit.mapping()),
              &sim);
    EXPECT_EQ(cache.size(), 2u);
}

/** Grid of unit configurations spanning every mapping kind. */
std::vector<VectorUnitConfig>
auditConfigs()
{
    std::vector<VectorUnitConfig> cfgs;
    VectorUnitConfig base;
    base.t = 2;
    base.lambda = 6;

    VectorUnitConfig matched = base;
    matched.kind = MemoryKind::Matched;
    cfgs.push_back(matched);

    VectorUnitConfig sectioned = base;
    sectioned.kind = MemoryKind::Sectioned;
    cfgs.push_back(sectioned);

    VectorUnitConfig simple = base;
    simple.kind = MemoryKind::SimpleUnmatched;
    simple.mOverride = 3; // s = 4 >= m = 3
    cfgs.push_back(simple);

    VectorUnitConfig dynamic = base;
    dynamic.kind = MemoryKind::DynamicTuned;
    dynamic.dynamicTune = 2;
    cfgs.push_back(dynamic);

    VectorUnitConfig prand = base;
    prand.kind = MemoryKind::PseudoRandom;
    cfgs.push_back(prand);

    return cfgs;
}

// The acceptance audit: every mapping kind x strides spanning
// in- and out-of-window families x lengths around the register
// size x randomized starts x both port counts.  Every access the
// theory tier claims must be bit-identical to the stepped oracle,
// and the tier must claim a nonzero share of the grid.
TEST(TheoryBackendAudit, RandomizedGridIsBitIdenticalOnClaims)
{
    Rng rng(0xA0D17ull);
    std::uint64_t claimed = 0;
    std::uint64_t fallback = 0;

    for (const VectorUnitConfig &cfg : auditConfigs()) {
        const VectorAccessUnit unit(cfg);
        const std::uint64_t reg = cfg.registerLength();

        BackendCache theoryCache;
        BackendCache simCache;

        for (unsigned family = 0; family <= 7; ++family) {
            for (std::uint64_t sigma : {1ull, 3ull}) {
                const std::uint64_t stride = sigma << family;
                for (std::uint64_t length :
                     {reg, reg / 2, reg * 2, std::uint64_t{5}}) {
                    const Addr a1 =
                        rng.below(2) ? 0 : rng.below(1u << 16);

                    // Single port: plan once, execute under
                    // each tier, compare the aggregates bit for
                    // bit.
                    const AccessPlan plan =
                        unit.plan(a1, Stride(stride), length);
                    TierCounters tc;
                    const AccessResult viaTier = unit.execute(
                        plan, nullptr, &theoryCache,
                        TierPolicy::TheoryFirst, &tc);
                    const AccessResult simulated = unit.execute(
                        plan, nullptr, &simCache);
                    EXPECT_EQ(viaTier, test::withoutDeliveries(simulated))
                        << cfg.describe() << " stride=" << stride
                        << " length=" << length << " a1=" << a1;
                    claimed += tc.claimed;
                    fallback += tc.fallback;

                    // Two ports: the tier must fall back, and
                    // falling back must not disturb results.
                    const std::vector<std::vector<Request>>
                        streams = {plan.stream, plan.stream};
                    const MultiPortResult tierPorts =
                        unit.executePorts(
                            streams, nullptr, &theoryCache,
                            TierPolicy::TheoryFirst, &tc);
                    const MultiPortResult simPorts =
                        unit.executePorts(streams, nullptr,
                                          &simCache);
                    EXPECT_EQ(tierPorts, test::withoutDeliveries(simPorts))
                        << cfg.describe() << " ports=2 stride="
                        << stride << " length=" << length;
                }
            }
        }
    }

    // The default-style grid is mostly conflict free by
    // construction; a silent claim rate of zero would mean the
    // fast path never engaged and the audit proved nothing.
    EXPECT_GT(claimed, 0u);
    EXPECT_GT(fallback, 0u);
    const double rate =
        static_cast<double>(claimed)
        / static_cast<double>(claimed + fallback);
    std::printf("theory tier claim rate: %llu/%llu (%.1f%%)\n",
                static_cast<unsigned long long>(claimed),
                static_cast<unsigned long long>(claimed + fallback),
                100.0 * rate);
}

sim::ScenarioGrid
mixedGrid()
{
    sim::ScenarioGrid grid;
    for (const VectorUnitConfig &cfg : auditConfigs())
        grid.mappings.push_back(cfg);
    grid.addFamilies(0, 7, {1, 3});
    grid.lengths = {0, 5};
    grid.starts = {0};
    grid.randomStarts = 1;
    grid.ports = {1, 2};
    grid.seed = 0xC0FFEEull;
    return grid;
}

TEST(TheoryBackendAudit, AuditBothSweepFindsNoDivergence)
{
    sim::SweepOptions opts;
    opts.tier = TierPolicy::AuditBoth;
    sim::SweepRunStats stats;
    const sim::SweepReport report =
        sim::SweepEngine(opts).run(mixedGrid(), &stats);

    EXPECT_EQ(stats.tierAuditDivergences, 0u);
    EXPECT_GT(stats.theoryClaims, 0u);
    EXPECT_GT(stats.theoryFallbacks, 0u);
    for (const auto &o : report.outcomes)
        EXPECT_FALSE(o.tierAuditDiverged) << "job " << o.index;
}

TEST(TheoryBackendAudit, TierChangesOnlyAttributionColumns)
{
    const sim::ScenarioGrid grid = mixedGrid();
    sim::SweepOptions simOpts;
    const sim::SweepReport simulated =
        sim::SweepEngine(simOpts).run(grid);

    sim::SweepOptions theoryOpts;
    theoryOpts.tier = TierPolicy::TheoryFirst;
    sim::SweepRunStats stats;
    const sim::SweepReport theory =
        sim::SweepEngine(theoryOpts).run(grid, &stats);
    EXPECT_GT(stats.theoryClaims, 0u);

    ASSERT_EQ(theory.outcomes.size(), simulated.outcomes.size());
    for (std::size_t i = 0; i < theory.outcomes.size(); ++i) {
        sim::ScenarioOutcome normalized = theory.outcomes[i];
        EXPECT_EQ(normalized.tierLabel(), std::string("theory"));
        normalized.theoryClaimed = 0;
        normalized.theoryFallback = 0;
        normalized.fallbackReason = FallbackReason::None;
        EXPECT_EQ(normalized, simulated.outcomes[i])
            << "job " << i << " differs beyond tier attribution";
    }
}

// Property tests pinning the closed-form identities the fast path
// leans on: a formula regression here would silently corrupt
// analytic answers long before a simulation disagreed.
TEST(TheoryIdentities, WindowFractionMatchesConflictFreeFraction)
{
    for (unsigned w = 0; w <= 12; ++w) {
        EXPECT_DOUBLE_EQ(
            theory::windowFraction({0, static_cast<int>(w)}),
            theory::conflictFreeFraction(w))
            << "w=" << w;
    }
}

TEST(TheoryIdentities, EmptyWindowHasZeroFraction)
{
    EXPECT_EQ(theory::windowFraction(theory::FamilyWindow{}), 0.0);
    EXPECT_EQ(theory::windowFraction({5, 2}), 0.0);
    EXPECT_EQ(theory::FamilyWindow{}.families(), 0u);
}

TEST(TheoryIdentities, PeriodsClampAtTheWindowBoundary)
{
    for (unsigned s = 2; s <= 6; ++s) {
        for (unsigned t = 1; t <= 3; ++t) {
            // Below the boundary the period halves per family...
            EXPECT_EQ(theory::periodMatched(s, t, s + t - 1), 2u);
            // ...reaches 1 exactly at x = s+t...
            EXPECT_EQ(theory::periodMatched(s, t, s + t), 1u);
            // ...and clamps (not underflows) beyond it.
            EXPECT_EQ(theory::periodMatched(s, t, s + t + 1), 1u);
            EXPECT_EQ(theory::periodMatched(s, t, s + t + 17), 1u);

            const unsigned y = s;
            EXPECT_EQ(theory::periodSectioned(y, t, y + t - 1), 2u);
            EXPECT_EQ(theory::periodSectioned(y, t, y + t), 1u);
            EXPECT_EQ(theory::periodSectioned(y, t, y + t + 1), 1u);
        }
    }
}

TEST(TheoryIdentities, FusedWindowRoundTrips)
{
    for (unsigned t = 2; t <= 3; ++t) {
        for (unsigned lambda = 2 * t; lambda <= 8; ++lambda) {
            const unsigned s = theory::recommendedS(t, lambda);
            const unsigned y = theory::recommendedY(t, lambda);
            const auto wins =
                theory::sectionedWindows(s, y, t, lambda);
            ASSERT_TRUE(wins.fused())
                << "recommended s/y must fuse (t=" << t
                << ", lambda=" << lambda << ")";
            const theory::FamilyWindow fused = wins.fusedWindow();
            EXPECT_EQ(fused.lo, wins.low.lo);
            EXPECT_EQ(fused.hi, wins.high.hi);
            EXPECT_EQ(fused.families(),
                      wins.low.families() + wins.high.families());
            // Every family of the fused window belongs to exactly
            // one constituent window.
            for (int x = fused.lo; x <= fused.hi; ++x) {
                const unsigned ux = static_cast<unsigned>(x);
                EXPECT_NE(wins.low.contains(ux),
                          wins.high.contains(ux))
                    << "x=" << x;
                EXPECT_TRUE(fused.contains(ux));
            }
        }
    }
}

} // namespace
} // namespace cfva
