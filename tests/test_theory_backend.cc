/**
 * @file
 * Tests for the tiered evaluator (src/theory/theory_backend.{h,cc}).
 *
 * The theory tier's whole contract is bit-identity: an access it
 * claims must produce exactly the AccessResult the simulation
 * engines would — latency, stalls, and every delivery timestamp.
 * The randomized audit grid here drives all mapping kinds across
 * strides inside and outside the paper's windows, lengths around
 * the register size, and both port counts, comparing the TheoryFirst
 * tier against pure simulation bit for bit and requiring a nonzero
 * claim rate.  Alongside it: unit tests of the claim/fallback
 * mechanics, sweep-level AuditBoth runs, and property tests pinning
 * the theory identities the fast path leans on.
 */

#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/access_unit.h"
#include "memsys/backend_cache.h"
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
std::unique_ptr<MemoryBackend>
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
    EXPECT_EQ(claimed, oracleOver(unit)->runSingle(plan.stream))
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

    EXPECT_EQ(viaTier, oracleOver(unit)->runSingle(plan.stream));
    EXPECT_FALSE(viaTier.conflictFree);
    EXPECT_GT(viaTier.stallCycles, 0u);
}

TEST(TheoryBackend, ProofRunsWhateverTheHint)
{
    const VectorAccessUnit unit(matchedConfig());
    const AccessPlan plan = unit.plan(0, Stride(1), 64);
    TheoryBackend tb(unit.memConfig(), unit.mapping());

    // The hint only names a fallback; the O(L) proof is tried
    // either way, so a conflict-free stream is claimed by it — no
    // memo lookup, no stepper pass — with the bit-identical
    // schedule.
    const AccessResult hinted =
        tb.runSingleHinted(false, plan.stream);
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_EQ(tb.stats().claimed, 1u);
    EXPECT_EQ(tb.fastPathStats(), FastPathStats{});
    EXPECT_EQ(hinted, oracleOver(unit)->runSingle(plan.stream));
    EXPECT_TRUE(hinted.conflictFree);
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
    // names why — from the planner's expectation, not from which
    // path gave up.
    const DeclinedCase c;
    const auto oracle = oracleOver(c.unit);
    TheoryBackend tb(c.unit.memConfig(), c.unit.mapping());
    for (bool expectConflictFree : {false, true}) {
        const AccessResult viaTier =
            tb.runSingleHinted(expectConflictFree, c.plan.stream);
        ASSERT_FALSE(tb.lastClaimed());
        EXPECT_EQ(tb.lastReason(), expectConflictFree
                                       ? FallbackReason::Unproven
                                       : FallbackReason::Conflicted);
        EXPECT_EQ(viaTier, oracle->runSingle(c.plan.stream));
    }
    EXPECT_EQ(tb.stats().fallback, 2u);
    EXPECT_EQ(tb.fastPathStats().collapseHits, 0u);
}

// A declined stream costs one memo lookup and one stepper pass, and
// a summary caller gets its aggregates without any delivery buffer:
// the pass that looked for a recurrence is also the answer.
TEST(TheoryBackend, DeclinedSummaryAccessIsSteppedOnce)
{
    const DeclinedCase c;
    ASSERT_FALSE(c.plan.expectConflictFree);
    ASSERT_LE(c.plan.stream.size(), OutcomeMemo::kMaxLen);

    BackendCache cache;
    DeliveryArena arena;
    TierCounters tc;
    const AccessResult r = c.unit.execute(
        c.plan, &arena, &cache, TierPolicy::TheoryFirst, &tc,
        MapPath::BitSliced, CollapseMode::On, ResultDetail::Summary);
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
// port and one P-port stepper pass over those premaps, and a summary
// caller gets its aggregates without any delivery buffer.
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
            streams, &arena, &cache, TierPolicy::TheoryFirst, &tc,
            MapPath::BitSliced, CollapseMode::On, ResultDetail::Summary);
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

        MultiPortResult ref = oracleOver(unit)->run(streams);
        for (AccessResult &port : ref.ports)
            port.deliveries.clear();
        EXPECT_EQ(r, ref) << what;
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
    EXPECT_EQ(empty, oracleOver(unit)->runSingle({}));
    EXPECT_TRUE(empty.conflictFree);
    EXPECT_EQ(empty.latency, 0u);
    EXPECT_TRUE(empty.deliveries.empty());
}

TEST(TheoryBackend, SinglePortRunLiftsLikeTheEngines)
{
    const VectorAccessUnit unit(matchedConfig());
    const AccessPlan plan = unit.plan(0, Stride(1), 64);
    TheoryBackend tb(unit.memConfig(), unit.mapping());

    const MultiPortResult lifted = tb.run({plan.stream});
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_EQ(lifted, oracleOver(unit)->run({plan.stream}));
    ASSERT_EQ(lifted.ports.size(), 1u);
    EXPECT_TRUE(lifted.ports[0].conflictFree);

    // At every detail, a one-stream runPorts carries the oracle's
    // makespan and aggregates, whether the proof claims the stream,
    // the solver claims it, or it is stepped.
    const auto expectLiftAgrees = [](const VectorAccessUnit &u,
                                     const std::vector<Request> &stream,
                                     bool claimed, const char *what) {
        const MultiPortResult oracle = oracleOver(u)->run({stream});
        for (ResultDetail detail :
             {ResultDetail::Full, ResultDetail::Summary,
              ResultDetail::SummaryIfUniform}) {
            TheoryBackend backend(u.memConfig(), u.mapping());
            MultiPortResult r = backend.runPorts({stream}, nullptr, detail);
            EXPECT_EQ(backend.lastClaimed(), claimed) << what;
            ASSERT_EQ(r.ports.size(), 1u) << what;
            EXPECT_EQ(r.makespan, oracle.makespan)
                << what << ", detail " << static_cast<int>(detail);
            if (detail != ResultDetail::Full && r.ports[0].deliveries.empty())
                r.ports[0].deliveries = oracle.ports[0].deliveries;
            EXPECT_EQ(r, oracle)
                << what << ", detail " << static_cast<int>(detail);
        }
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
    const MultiPortResult viaTier = tb.run(streams);
    EXPECT_FALSE(tb.lastClaimed());
    EXPECT_EQ(tb.lastReason(), FallbackReason::MultiPort);
    EXPECT_EQ(tb.stats().fallback, 1u);
    EXPECT_EQ(viaTier, oracleOver(unit)->run(streams));
}

TEST(TheoryBackend, MultiPortDisjointPortsAreClaimed)
{
    const VectorAccessUnit unit(matchedConfig());
    // Family 6 confines each port to a single module; pick a second
    // base landing on a different module, so the ports are provably
    // disjoint and the claim decomposes into two single-port
    // answers.
    const AccessPlan p0 = unit.plan(0, Stride(64), 32);
    const ModuleId mod0 = unit.mapping().moduleOf(p0.stream[0].addr);
    AccessPlan p1 = unit.plan(0, Stride(64), 32);
    bool found = false;
    for (Addr base = 1; base < 4096 && !found; ++base) {
        p1 = unit.plan(base, Stride(64), 32);
        found = true;
        for (const Request &r : p1.stream) {
            if (unit.mapping().moduleOf(r.addr) == mod0) {
                found = false;
                break;
            }
        }
    }
    ASSERT_TRUE(found) << "no disjoint base below 4096";

    TheoryBackend tb(unit.memConfig(), unit.mapping());
    const std::vector<std::vector<Request>> streams = {p0.stream,
                                                       p1.stream};
    const MultiPortResult viaTier = tb.run(streams);
    EXPECT_TRUE(tb.lastClaimed());
    EXPECT_EQ(tb.lastReason(), FallbackReason::None);
    EXPECT_EQ(tb.stats().claimed, 1u);
    EXPECT_EQ(viaTier, oracleOver(unit)->run(streams));
    ASSERT_EQ(viaTier.ports.size(), 2u);
    for (unsigned p = 0; p < 2; ++p) {
        for (const Delivery &d : viaTier.ports[p].deliveries)
            EXPECT_EQ(d.port, p);
    }
}

TEST(TheoryBackend, CacheKeepsTiersSeparate)
{
    const VectorAccessUnit unit(matchedConfig());
    BackendCache cache;
    MemoryBackend &sim =
        cache.backendFor(unit.memConfig(), unit.mapping());
    TheoryBackend &tb =
        cache.theoryBackendFor(unit.memConfig(), unit.mapping());
    EXPECT_NE(&sim, static_cast<MemoryBackend *>(&tb));
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
                    // each tier, compare bit for bit.
                    const AccessPlan plan =
                        unit.plan(a1, Stride(stride), length);
                    TierCounters tc;
                    const AccessResult viaTier = unit.execute(
                        plan, nullptr, &theoryCache,
                        TierPolicy::TheoryFirst, &tc);
                    const AccessResult simulated = unit.execute(
                        plan, nullptr, &simCache);
                    EXPECT_EQ(viaTier, simulated)
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
                    EXPECT_EQ(tierPorts, simPorts)
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
