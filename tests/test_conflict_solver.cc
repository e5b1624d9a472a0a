/**
 * @file
 * Property suite for the steady-state conflict solver
 * (src/theory/conflict_solver.{h,cc}).
 *
 * The solver's contract is exactness, not coverage: any stream it
 * claims must carry the stall count and every aggregate the stepped
 * per-cycle oracle produces, and the claim decision itself must be a
 * pure function of (config, module sequence, length) — never of memo
 * state.  The solver answers aggregates only, so the delivery-level
 * check runs each stream through the event stepper's recording pass
 * (the pass the solver takes, with the same jump) and holds that to
 * the oracle record by record.  The randomized grid here spans all
 * five mapping kinds, strides inside and outside each paper window,
 * input/output buffer depths, and 1-3 ports, checking the closed
 * form bit for bit against the stepped oracle.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/access_unit.h"
#include "memsys/event_driven.h"
#include "memsys/memory_system.h"
#include "test_util.h"
#include "theory/conflict_solver.h"
#include "theory/theory_backend.h"

namespace cfva {
namespace {

/** One unit configuration per mapping kind at the given buffer
 *  depths (t=2, lambda=6 keeps the stepped oracle fast). */
std::vector<VectorUnitConfig>
solverConfigs(unsigned q, unsigned qOut)
{
    std::vector<VectorUnitConfig> cfgs;
    VectorUnitConfig base;
    base.t = 2;
    base.lambda = 6;
    base.inputBuffers = q;
    base.outputBuffers = qOut;

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

/** The stepped per-cycle oracle. */
std::unique_ptr<MemorySystem>
steppedOracle(const VectorAccessUnit &unit)
{
    return std::make_unique<MemorySystem>(unit.memConfig(),
                                          unit.mapping());
}

std::vector<ModuleId>
premap(const VectorAccessUnit &unit,
       const std::vector<Request> &stream)
{
    std::vector<ModuleId> mods(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i)
        mods[i] = unit.mapping().moduleOf(stream[i].addr);
    return mods;
}

/** Smallest period of @p mods by brute force (the solver's KMP
 *  must agree with the definition, not the implementation). */
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

// Every claimed single stream must equal the stepped oracle in
// latency and stall count, and the stepper's recording pass in each
// delivery timestamp; the grid is biased toward conflicted
// (out-of-window) families so the new analytic path, not the
// conflict-free proof, is what's exercised.
TEST(ConflictSolverProperty, ClaimsMatchTheSteppedOracle)
{
    Rng rng(0x50F7C0DEull);
    std::uint64_t claimed = 0;
    std::uint64_t conflictedClaims = 0;
    std::uint64_t refused = 0;

    for (unsigned q : {1u, 2u, 3u}) {
        for (unsigned qOut : {1u, 2u}) {
            for (const VectorUnitConfig &cfg :
                 solverConfigs(q, qOut)) {
                const VectorAccessUnit unit(cfg);
                const auto oracle = steppedOracle(unit);
                ConflictSolver solver;
                EventStepper recorder;
                for (unsigned trial = 0; trial < 12; ++trial) {
                    const unsigned family =
                        static_cast<unsigned>(rng.below(9));
                    const std::uint64_t sigma = rng.oddBelow(16);
                    const std::uint64_t length =
                        17 + rng.below(80);
                    const Addr a1 = rng.below(Addr{1} << 20);
                    const AccessPlan plan = unit.plan(
                        a1, Stride::fromFamily(sigma, family),
                        length);
                    const auto mods = premap(unit, plan.stream);

                    AccessResult viaSolver;
                    const bool ok = solver.solveOrStep(
                        unit.memConfig(), plan.stream, mods.data(),
                        viaSolver);
                    const AccessResult simulated =
                        oracle->runSingle(plan.stream);
                    EXPECT_EQ(viaSolver,
                              test::withoutDeliveries(simulated))
                        << cfg.describe() << " family=" << family
                        << " sigma=" << sigma
                        << " length=" << length << " a1=" << a1;
                    AccessResult recorded;
                    recorder.run(unit.memConfig(), plan.stream,
                                 mods.data(), true, recorded);
                    EXPECT_EQ(recorded, simulated)
                        << cfg.describe() << " family=" << family
                        << " sigma=" << sigma
                        << " length=" << length << " a1=" << a1
                        << " (recording pass)";
                    if (!ok) {
                        ++refused;
                        continue;
                    }
                    ++claimed;
                    if (!simulated.conflictFree)
                        ++conflictedClaims;
                }
            }
        }
    }
    // Refusals are legitimate (the pseudo-random mapping is
    // aperiodic; low families pair long periods with streams too
    // short to repeat them twice) — what the tier promises is that
    // claims happen at scale and include genuinely conflicted
    // streams, each bit-identical above.
    EXPECT_GT(claimed, 100u);
    EXPECT_GT(conflictedClaims, 0u);
}

// The steady state really is steady: for claimed streams many
// periods long, the mid-stream delivery-gap pattern must repeat
// with the module-sequence period — the affine extrapolation the
// closed form rests on, read from the oracle's own timestamps once
// the solver's aggregates match the oracle's.  The head (transient
// until the machine state recurs) and the tail (buffers draining
// once issue stops) are excluded: both legitimately deviate from the
// steady cadence, and the bit-identity assertions above already pin
// them.
TEST(ConflictSolverProperty, TailGapsArePeriodic)
{
    Rng rng(0x7A11C0DEull);
    std::uint64_t checked = 0;

    for (const VectorUnitConfig &cfg : solverConfigs(2, 1)) {
        const VectorAccessUnit unit(cfg);
        const auto oracle = steppedOracle(unit);
        ConflictSolver solver;
        for (unsigned trial = 0; trial < 10; ++trial) {
            const unsigned family =
                static_cast<unsigned>(rng.below(8));
            const AccessPlan plan =
                unit.plan(rng.below(Addr{1} << 16),
                          Stride::fromFamily(rng.oddBelow(8),
                                             family),
                          64);
            const auto mods = premap(unit, plan.stream);
            const std::size_t p = bruteForcePeriod(mods);
            if (p == 0 || p >= mods.size() / 8)
                continue;

            AccessResult viaSolver;
            if (!solver.solveOrStep(unit.memConfig(), plan.stream,
                                    mods.data(), viaSolver))
                continue;
            const AccessResult simulated =
                oracle->runSingle(plan.stream);
            ASSERT_EQ(viaSolver, test::withoutDeliveries(simulated));

            const auto &d = simulated.deliveries;
            ASSERT_EQ(d.size(), mods.size());
            const std::size_t mid = d.size() / 2;
            for (std::size_t i = mid; i < mid + p; ++i) {
                const Cycle gap =
                    d[i].delivered - d[i - 1].delivered;
                const Cycle prevGap =
                    d[i - p].delivered - d[i - p - 1].delivered;
                EXPECT_EQ(gap, prevGap)
                    << cfg.describe() << " period=" << p
                    << " mid index=" << i;
            }
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u);
}

// Claim attribution must be memo-invariant: the same stream solved
// on a warm solver (memo hit), again on the same solver, and on a
// cold one must agree on the claim bit and on every byte of the
// result.  Reports identical at any thread count, grain and shard
// rest on exactly this determinism.
TEST(ConflictSolverProperty, ClaimDecisionIsMemoInvariant)
{
    Rng rng(0xDE7E12ull);
    for (const VectorUnitConfig &cfg : solverConfigs(2, 1)) {
        const VectorAccessUnit unit(cfg);
        ConflictSolver warm;
        for (unsigned trial = 0; trial < 6; ++trial) {
            const AccessPlan plan = unit.plan(
                rng.below(Addr{1} << 18),
                Stride::fromFamily(
                    rng.oddBelow(8),
                    static_cast<unsigned>(rng.below(8))),
                33 + rng.below(64));
            const auto mods = premap(unit, plan.stream);

            AccessResult first, second, cold;
            const bool okFirst = warm.solveOrStep(
                unit.memConfig(), plan.stream, mods.data(), first);
            const bool okSecond = warm.solveOrStep(
                unit.memConfig(), plan.stream, mods.data(), second);
            ConflictSolver fresh;
            const bool okCold = fresh.solveOrStep(
                unit.memConfig(), plan.stream, mods.data(), cold);

            EXPECT_EQ(okFirst, okSecond);
            EXPECT_EQ(okFirst, okCold);
            EXPECT_EQ(first, second);
            EXPECT_EQ(first, cold);
        }
    }
}

// Multi-port decomposition: across randomized staggered bases and
// 1-3 ports, whatever the tier claims must equal the stepped
// oracle's MultiPortResult aggregates bit for bit (and the stepper's
// recording P-port pass its deliveries), and small staggers (which
// land inside the mappings' folded address fields) must produce a
// nonzero number of genuine multi-port claims.
TEST(ConflictSolverProperty, MultiPortClaimsMatchTheSteppedOracle)
{
    Rng rng(0x3B0A7Dull);
    std::uint64_t multiPortClaims = 0;
    std::uint64_t compared = 0;

    for (const VectorUnitConfig &cfg : solverConfigs(2, 1)) {
        const VectorAccessUnit unit(cfg);
        TheoryBackend tb(unit.memConfig(), unit.mapping());
        const auto oracle = steppedOracle(unit);
        EventStepper recorder;
        for (unsigned ports = 1; ports <= 3; ++ports) {
            for (unsigned trial = 0; trial < 8; ++trial) {
                // High families confine each port to few modules;
                // the small random stagger decides whether the
                // ports land disjoint or collide.
                const unsigned family =
                    4 + static_cast<unsigned>(rng.below(4));
                const std::uint64_t length = 8 + rng.below(25);
                const Addr base = rng.below(Addr{1} << 14);
                const Addr stagger = 1 + rng.below(64);
                std::vector<std::vector<Request>> streams;
                for (unsigned p = 0; p < ports; ++p) {
                    streams.push_back(
                        unit.plan(base + p * stagger,
                                  Stride::fromFamily(
                                      rng.oddBelow(6), family),
                                  length)
                            .stream);
                }
                const MultiPortResult viaTier = tb.runPorts(streams);
                const MultiPortResult simulated =
                    oracle->run(streams);
                EXPECT_EQ(viaTier, test::withoutDeliveries(simulated))
                    << cfg.describe() << " ports=" << ports
                    << " stagger=" << stagger;
                std::vector<std::vector<ModuleId>> mods;
                for (const auto &stream : streams)
                    mods.push_back(premap(unit, stream));
                EXPECT_EQ(recorder.runPorts(unit.memConfig(), streams,
                                            mods, true),
                          simulated)
                    << cfg.describe() << " ports=" << ports
                    << " stagger=" << stagger << " (recording pass)";
                ++compared;
                if (tb.lastClaimed() && ports > 1)
                    ++multiPortClaims;
            }
        }
    }
    EXPECT_GT(compared, 0u);
    EXPECT_GT(multiPortClaims, 0u);
}

// The certification chain behind runSingleCertified: whenever the
// planner marks a plan expectConflictFree (the paper's window
// theorems), the stepped oracle must find the stream conflict free
// and the O(1) certified claim must carry its exact aggregates.  This
// is the property that lets the sweep skip the per-element proof
// for certified streams without weakening the tier's exactness
// contract.
TEST(ConflictSolverProperty, CertifiedPlansMatchTheSteppedOracle)
{
    Rng rng(0xCE27F1EDull);
    std::uint64_t certified = 0;

    for (unsigned q : {1u, 2u}) {
        for (const VectorUnitConfig &cfg : solverConfigs(q, 1)) {
            const VectorAccessUnit unit(cfg);
            const auto oracle = steppedOracle(unit);
            TheoryBackend tb(unit.memConfig(), unit.mapping());
            for (unsigned trial = 0; trial < 48; ++trial) {
                const unsigned family =
                    static_cast<unsigned>(rng.below(9));
                const std::uint64_t sigma = rng.oddBelow(16);
                const std::uint64_t length = 1 + rng.below(96);
                const Addr a1 = rng.below(Addr{1} << 20);
                const AccessPlan plan = unit.plan(
                    a1, Stride::fromFamily(sigma, family), length);
                if (!plan.expectConflictFree)
                    continue;
                ++certified;

                const AccessResult simulated =
                    oracle->runSingle(plan.stream);
                EXPECT_TRUE(simulated.conflictFree)
                    << "planner certified a conflicted stream: "
                    << cfg.describe() << " family=" << family
                    << " sigma=" << sigma << " length=" << length
                    << " a1=" << a1;

                const AccessResult claimed =
                    tb.runSingleCertified(plan.stream);
                EXPECT_TRUE(tb.lastClaimed());
                EXPECT_EQ(claimed, test::withoutDeliveries(simulated))
                    << cfg.describe() << " family=" << family
                    << " sigma=" << sigma << " length=" << length
                    << " a1=" << a1;
            }
        }
    }
    EXPECT_GT(certified, 40u);
}

} // namespace
} // namespace cfva
