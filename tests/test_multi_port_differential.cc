/**
 * @file
 * Differential testing of the event stepper's P-port pass against
 * the stepped multi-port oracle.
 *
 * The contract (memsys/event_driven.h, EventStepper::runPorts): for
 * every set of request streams on every memory shape, the pass
 * returns a MultiPortResult bit-identical to MemorySystem::run
 * — every per-port delivery record with all five timestamps and the
 * port tag, every per-port stall count, every aggregate — and a
 * summary pass returns the same aggregates with no delivery at all.
 * Three layers of evidence:
 *
 * 1. Raw-stream properties: adversarial stream sets (all ports on
 *    one module, uneven and empty streams, 64 ports on 8 modules,
 *    tiny buffers) driven through the oracle and through one shared
 *    stepper instance at full and at summary detail.
 * 2. A randomized ScenarioGrid of > 1000 planned multi-port
 *    accesses across every mapping kind, ports in {2, 3, 4}, and
 *    mixed per-port traffic, swept once per tier; the SweepReports
 *    must compare equal outside the tier-attribution columns, and
 *    sampled scenarios' direct MultiPortResults must compare equal.
 * 3. Physical invariants on the stepper alone: per-port delivery
 *    counts are conserved (every issued element delivered exactly
 *    once to its own port), and the makespan is monotone in added
 *    streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/stride.h"
#include "core/access_unit.h"
#include "mapping/interleave.h"
#include "mapping/xor_matched.h"
#include "memsys/event_driven.h"
#include "memsys/memory_system.h"
#include "sim/scenario.h"
#include "sim/sweep_engine.h"
#include "test_util.h"

namespace cfva {
namespace {

/**
 * The one stepper every check in this file drives directly: passes
 * of different M, q, q' and P run on it back to back, so any state a
 * reset misses shows up as a divergence.
 */
EventStepper &
sharedStepper()
{
    static EventStepper stepper;
    return stepper;
}

/** @p r without its delivery records: the aggregates alone. */
MultiPortResult
aggregatesOf(MultiPortResult r)
{
    for (AccessResult &port : r.ports)
        port.deliveries.clear();
    return r;
}

/** Premaps every stream of @p streams through @p map. */
std::vector<std::vector<ModuleId>>
premapPorts(const ModuleMapping &map,
            const std::vector<std::vector<Request>> &streams)
{
    std::vector<std::vector<ModuleId>> mods;
    for (const auto &stream : streams) {
        mods.emplace_back();
        for (const Request &r : stream)
            mods.back().push_back(map.moduleOf(r.addr));
    }
    return mods;
}

/** Asserts @p event equals @p oracle record for record. */
void
expectSameResult(const MultiPortResult &event,
                 const MultiPortResult &oracle, const std::string &what)
{
    ASSERT_EQ(event.ports.size(), oracle.ports.size()) << what;
    for (std::size_t p = 0; p < oracle.ports.size(); ++p) {
        ASSERT_EQ(event.ports[p].deliveries.size(),
                  oracle.ports[p].deliveries.size())
            << what << ": port " << p;
        for (std::size_t i = 0; i < oracle.ports[p].deliveries.size();
             ++i) {
            ASSERT_EQ(event.ports[p].deliveries[i],
                      oracle.ports[p].deliveries[i])
                << what << ": port " << p << " delivery " << i
                << " diverges (element "
                << oracle.ports[p].deliveries[i].element << ")";
        }
        ASSERT_EQ(event.ports[p], oracle.ports[p])
            << what << ": port " << p << " aggregates diverge";
    }
    EXPECT_EQ(event, oracle) << what;
}

/**
 * Runs @p streams through the oracle and through the shared
 * stepper's P-port pass at full and at summary detail, and asserts
 * the stepper agrees with the oracle.
 */
void
expectBackendsAgree(const MemConfig &cfg, const ModuleMapping &map,
                    const std::vector<std::vector<Request>> &streams,
                    const char *what)
{
    const MultiPortResult oracle = simulateMultiPort(cfg, map, streams);
    const std::vector<std::vector<ModuleId>> mods =
        premapPorts(map, streams);
    expectSameResult(sharedStepper().runPorts(cfg, streams, mods, true),
                     oracle, std::string(what) + " (stepper, full)");
    const MultiPortResult summary =
        sharedStepper().runPorts(cfg, streams, mods, false);
    for (const AccessResult &port : summary.ports)
        EXPECT_TRUE(port.deliveries.empty()) << what;
    EXPECT_EQ(summary, aggregatesOf(oracle))
        << what << " (stepper, summary)";
    EXPECT_EQ(sharedStepper().steppedCycles(), oracle.makespan) << what;

    // The solver alternates P-port and one-port passes on one
    // stepper, so each port stepped alone right after must still
    // match the oracle: nothing of the P-port pass may leak.
    for (std::size_t p = 0; p < streams.size(); ++p) {
        AccessResult alone;
        sharedStepper().run(cfg, streams[p], mods[p].data(),
                            Recurrence::JumpOrFinish, true, true, alone);
        EXPECT_EQ(alone, simulateAccess(cfg, map, streams[p]))
            << what << ": port " << p << " stepped alone";
    }
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

TEST(MultiPortDifferential, TwoSingleElementStreams)
{
    const MemConfig cfg;
    const XorMatchedMapping map(3, 4);
    expectBackendsAgree(cfg, map,
                        {sequentialStream({13}),
                         sequentialStream({13})},
                        "two one-element streams");
}

TEST(MultiPortDifferential, EmptyAndShortStreams)
{
    // A port with nothing to issue next to active ports: the empty
    // port must stay vacuously conflict free in both backends.
    const MemConfig cfg;
    const XorMatchedMapping map(3, 4);
    expectBackendsAgree(cfg, map,
                        {sequentialStream({}),
                         sequentialStream({1, 2, 3, 4})},
                        "empty + short");
    expectBackendsAgree(cfg, map,
                        {sequentialStream({5, 6}),
                         sequentialStream({}),
                         sequentialStream({7})},
                        "short + empty + one");
}

TEST(MultiPortDifferential, AdversarialSameModulePileup)
{
    // Every request of every port lands on module 0: the maximally
    // contended stream set, where the least-issued-first rotation,
    // blocked retires, and per-port head-of-line blocking through
    // the shared output FIFO are all hit constantly.
    for (unsigned n_ports : {2u, 3u, 4u}) {
        for (unsigned q : {1u, 2u}) {
            for (unsigned qp : {1u, 2u}) {
                MemConfig cfg;
                cfg.m = 3;
                cfg.t = 3;
                cfg.inputBuffers = q;
                cfg.outputBuffers = qp;
                const LowOrderInterleave map(3);
                std::vector<std::vector<Request>> streams;
                for (unsigned p = 0; p < n_ports; ++p) {
                    std::vector<Addr> addrs(24);
                    for (std::size_t i = 0; i < addrs.size(); ++i)
                        addrs[i] = (i + p) * 8; // always module 0
                    streams.push_back(sequentialStream(addrs));
                }
                expectBackendsAgree(cfg, map, streams,
                                    "same-module pileup");
            }
        }
    }
}

TEST(MultiPortDifferential, SixtyFourPortsOnEightModules)
{
    // Far more ports than modules: most issue attempts stall, many
    // ports tie on their issued counts every cycle (the tie goes to
    // the lower port), and ports drain at different times.
    Rng rng(0x64A11ull);
    for (unsigned q : {1u, 2u}) {
        for (unsigned qp : {1u, 2u}) {
            MemConfig cfg;
            cfg.m = 3;
            cfg.t = 3;
            cfg.inputBuffers = q;
            cfg.outputBuffers = qp;
            const LowOrderInterleave map(3);
            std::vector<std::vector<Request>> streams;
            for (unsigned p = 0; p < 64; ++p) {
                std::vector<Addr> addrs(p % 5 == 0 ? 0 : 4 + p % 7);
                for (std::size_t i = 0; i < addrs.size(); ++i) {
                    addrs[i] = p % 3 == 0 ? (i + p) * 8 // module 0
                                          : rng.below(64);
                }
                streams.push_back(sequentialStream(addrs));
            }
            expectBackendsAgree(cfg, map, streams, "64 ports");
        }
    }
}

TEST(MultiPortDifferential, UnevenStreamLengths)
{
    // Ports finishing at very different times: the issue rotation
    // keeps re-sorting as ports drain, and finished ports must not
    // distort the survivors' stalls.
    Rng rng(0xBADCAFEull);
    for (unsigned rep = 0; rep < 12; ++rep) {
        MemConfig cfg;
        cfg.m = 2 + rng.below(2);
        cfg.t = 2 + rng.below(2);
        cfg.inputBuffers = 1 + rng.below(2);
        const LowOrderInterleave map(cfg.m);
        const unsigned n_ports = 2 + rng.below(3);
        std::vector<std::vector<Request>> streams;
        for (unsigned p = 0; p < n_ports; ++p) {
            const std::size_t len = rng.below(1 + 16 * (p + 1));
            std::vector<Addr> addrs(len);
            for (auto &a : addrs)
                a = rng.below(Addr{1} << (3 + rng.below(6)));
            streams.push_back(sequentialStream(addrs));
        }
        expectBackendsAgree(cfg, map, streams, "uneven lengths");
    }
}

TEST(MultiPortDifferential, RandomStreamsAllShapes)
{
    Rng rng(0xD1FF2ull);
    unsigned checked = 0;
    for (unsigned m : {1u, 2u, 3u, 4u}) {
        for (unsigned t : {1u, 2u, 3u, 8u}) {
            for (unsigned n_ports : {2u, 3u, 4u}) {
                MemConfig cfg;
                cfg.m = m;
                cfg.t = t;
                cfg.inputBuffers = 1 + (checked % 2);
                const LowOrderInterleave map(m);
                for (unsigned qp : {1u, 2u, 3u}) {
                    cfg.outputBuffers = qp;
                    // Clustered addresses: small ranges produce
                    // heavy conflicts, large ranges light ones.
                    const Addr range = Addr{1} << (2 + rng.below(8));
                    std::vector<std::vector<Request>> streams;
                    for (unsigned p = 0; p < n_ports; ++p) {
                        const std::size_t len = 1 + rng.below(48);
                        std::vector<Addr> addrs(len);
                        for (auto &a : addrs)
                            a = rng.below(range);
                        streams.push_back(sequentialStream(addrs));
                    }
                    expectBackendsAgree(cfg, map, streams,
                                        "random streams");
                    ++checked;
                }
            }
        }
    }
    EXPECT_GE(checked, 100u);
}

/**
 * The randomized grid: every mapping kind x strides x lengths x
 * starts x ports {2, 3, 4} x mixed per-port traffic, > 1000
 * scenarios, swept under both tiers.
 */
sim::ScenarioGrid
randomizedMultiPortGrid(std::uint64_t seed)
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
            cfg.mOverride =
                t + static_cast<unsigned>(rng.below(lambda - 2 * t + 1));
        }
        if (kind == MemoryKind::DynamicTuned)
            cfg.dynamicTune = static_cast<unsigned>(rng.below(6));
        if (kind == MemoryKind::PseudoRandom)
            cfg.prandSeed = rng.next();
        grid.mappings.push_back(cfg);
    };

    for (MemoryKind kind :
         {MemoryKind::Matched, MemoryKind::SimpleUnmatched,
          MemoryKind::Sectioned, MemoryKind::DynamicTuned,
          MemoryKind::PseudoRandom}) {
        const unsigned t = 2 + static_cast<unsigned>(rng.below(2));
        const unsigned lambda =
            2 * t + 1 + static_cast<unsigned>(rng.below(2));
        push(kind, t, lambda);
    }

    // Strides: families 0..5 with random odd multipliers.
    for (unsigned x = 0; x <= 5; ++x)
        grid.strides.push_back(
            Stride::fromFamily(rng.oddBelow(32), x).value());

    // Full-register plus a short vector, at every port count the
    // differential must guard.
    grid.lengths = {0, 1 + rng.below(24)};
    grid.ports = {2, 3, 4};

    // Mixed traffic: cloned, odd-multiplier (same family),
    // even-multiplier (family shift), and descending streams.
    grid.portMixes = {sim::PortMix{},
                      sim::PortMix{{1, 3}},
                      sim::PortMix{{1, 2, 5}},
                      sim::PortMix{{1, -1}}};

    grid.starts = {0};
    grid.randomStarts = 1;
    grid.seed = rng.next();
    return grid;
}

TEST(MultiPortDifferential, RandomizedGridOver1000Scenarios)
{
    const sim::ScenarioGrid grid =
        randomizedMultiPortGrid(0x5EED1234ull);
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
            << " stride " << oracle.outcomes[i].stride << " mix "
            << oracle.portMixLabels[oracle.outcomes[i].portMixIndex]
            << " ports " << oracle.outcomes[i].ports << " length "
            << oracle.outcomes[i].length << " a1 "
            << oracle.outcomes[i].a1 << ") diverges";
    }
    EXPECT_EQ(tested, oracle);
}

TEST(MultiPortDifferential, PlannedAccessesFullResultEquality)
{
    // Beyond the report fields: the complete MultiPortResult —
    // every per-port delivery timestamp — for planned multi-port
    // accesses of each kind from the oracle and from the evaluator
    // at full detail.
    Rng rng(0xACCE551ull);
    const sim::ScenarioGrid grid =
        randomizedMultiPortGrid(0xF00D1234ull);
    unsigned checked = 0;
    for (const auto &mapping : grid.mappings) {
        const VectorAccessUnit unit(mapping);
        for (unsigned rep = 0; rep < 6; ++rep) {
            const unsigned n_ports = 2 + rng.below(3);
            std::vector<std::vector<Request>> streams;
            for (unsigned p = 0; p < n_ports; ++p) {
                const Stride stride = Stride::fromFamily(
                    rng.oddBelow(16),
                    static_cast<unsigned>(rng.below(6)));
                const std::uint64_t length =
                    rep < 3 ? mapping.registerLength()
                            : 1 + rng.below(mapping.registerLength());
                const Addr a1 =
                    rng.below(Addr{1} << 18) + (Addr{p} << 20);
                streams.push_back(
                    unit.plan(a1, stride, length).stream);
            }
            const MultiPortResult a = unit.executePorts(streams);
            const MultiPortResult b = unit.executePorts(
                streams, nullptr, nullptr, TierPolicy::TheoryFirst);
            EXPECT_EQ(b, a)
                << mapping.describe() << " ports " << n_ports;
            ++checked;
        }
    }
    EXPECT_GE(checked, 30u);
}

TEST(MultiPortProperty, DeliveryCountsConserved)
{
    // Conservation: every port delivers exactly its stream's
    // elements, each exactly once, tagged with its own port id.
    Rng rng(0xC015E12Eull);
    for (unsigned rep = 0; rep < 10; ++rep) {
        MemConfig cfg;
        cfg.m = 2 + rng.below(3);
        cfg.t = 2 + rng.below(2);
        const LowOrderInterleave map(cfg.m);
        const unsigned n_ports = 2 + rng.below(3);
        std::vector<std::vector<Request>> streams;
        for (unsigned p = 0; p < n_ports; ++p) {
            const std::size_t len = rng.below(64);
            std::vector<Addr> addrs(len);
            for (auto &a : addrs)
                a = rng.below(1 << 10);
            streams.push_back(sequentialStream(addrs));
        }
        const MultiPortResult r = sharedStepper().runPorts(
            cfg, streams, premapPorts(map, streams), true);
        ASSERT_EQ(r.ports.size(), n_ports);
        for (unsigned p = 0; p < n_ports; ++p) {
            ASSERT_EQ(r.ports[p].deliveries.size(),
                      streams[p].size())
                << "port " << p;
            std::vector<std::uint64_t> elements;
            for (const auto &d : r.ports[p].deliveries) {
                EXPECT_EQ(d.port, p);
                elements.push_back(d.element);
            }
            std::sort(elements.begin(), elements.end());
            for (std::size_t i = 0; i < elements.size(); ++i)
                ASSERT_EQ(elements[i], i)
                    << "port " << p << " lost or duplicated an "
                    << "element";
        }
    }
}

TEST(MultiPortProperty, MakespanMonotoneInAddedStreams)
{
    // Adding a stream can only grow (or keep) the makespan: the
    // extra traffic competes for the same modules and buses.
    Rng rng(0x300D5ull);
    for (unsigned rep = 0; rep < 8; ++rep) {
        MemConfig cfg;
        cfg.m = 2 + rng.below(2);
        cfg.t = 2 + rng.below(2);
        const LowOrderInterleave map(cfg.m);
        std::vector<std::vector<Request>> streams;
        Cycle prev = 0;
        for (unsigned p = 0; p < 4; ++p) {
            const std::size_t len = 8 + rng.below(32);
            std::vector<Addr> addrs(len);
            for (auto &a : addrs)
                a = rng.below(1 << 8);
            streams.push_back(sequentialStream(addrs));
            const MultiPortResult r = sharedStepper().runPorts(
                cfg, streams, premapPorts(map, streams), false);
            EXPECT_GE(r.makespan, prev)
                << "adding stream " << p << " shrank the makespan";
            prev = r.makespan;
        }
    }
}

TEST(MultiPortDifferential, ArenaDoesNotChangeResults)
{
    // Arena-recycled delivery buffers must leave the records
    // themselves bit-identical, and buffers must actually pool.
    const MemConfig cfg;
    const XorMatchedMapping map(3, 4);
    std::vector<std::vector<Request>> streams;
    for (unsigned p = 0; p < 3; ++p) {
        std::vector<Addr> addrs(40);
        for (std::size_t i = 0; i < addrs.size(); ++i)
            addrs[i] = i * 3 + p;
        streams.push_back(sequentialStream(addrs));
    }

    DeliveryArena arena;
    const std::vector<std::vector<ModuleId>> mods =
        premapPorts(map, streams);
    EventStepper &stepper = sharedStepper();
    const MultiPortResult plain = stepper.runPorts(cfg, streams, mods, true);
    MultiPortResult pooled =
        stepper.runPorts(cfg, streams, mods, true, &arena);
    EXPECT_EQ(pooled, plain);
    for (auto &port : pooled.ports)
        arena.release(std::move(port.deliveries));
    EXPECT_EQ(arena.pooled(), 3u);
    const MultiPortResult reused =
        stepper.runPorts(cfg, streams, mods, true, &arena);
    EXPECT_EQ(reused, plain);
    EXPECT_EQ(arena.pooled(), 0u); // buffers handed back out

    // The oracle's P = 1 path recycles too: a released buffer is
    // handed back out on the next runSingle, so the sweep's
    // release-after-consume loop cannot grow the pool unboundedly.
    MemorySystem oracle(cfg, map);
    AccessResult first = oracle.runSingle(streams[0], &arena);
    const AccessResult bare = oracle.runSingle(streams[0]);
    EXPECT_EQ(first, bare);
    arena.release(std::move(first.deliveries));
    EXPECT_EQ(arena.pooled(), 1u);
    const AccessResult second = oracle.runSingle(streams[0], &arena);
    EXPECT_EQ(second, bare);
    EXPECT_EQ(arena.pooled(), 0u);
}

TEST(MultiPortDifferential, ArenaPoolIsBounded)
{
    // One pathological large-L access must not pin a peak-sized
    // buffer for the rest of a sweep, and runaway release loops
    // must not grow the freelist without bound.
    DeliveryArena arena;

    // Oversize buffers are freed on release, not pooled: the
    // pooled byte count is the same before and after.
    std::vector<Delivery> huge;
    huge.reserve(DeliveryArena::kMaxPooledCapacity + 1);
    const std::size_t bytesBefore = arena.pooledBytes();
    const std::size_t countBefore = arena.pooled();
    arena.release(std::move(huge));
    EXPECT_EQ(arena.pooledBytes(), bytesBefore);
    EXPECT_EQ(arena.pooled(), countBefore);

    // A buffer at exactly the cap still pools.
    std::vector<Delivery> atCap;
    atCap.reserve(DeliveryArena::kMaxPooledCapacity);
    arena.release(std::move(atCap));
    EXPECT_EQ(arena.pooled(), 1u);
    EXPECT_GE(arena.pooledBytes(),
              DeliveryArena::kMaxPooledCapacity * sizeof(Delivery));

    // The pool count is capped: releases beyond kMaxPooled free
    // their buffers instead of retaining them.
    for (std::size_t i = 0; i < 2 * DeliveryArena::kMaxPooled; ++i) {
        std::vector<Delivery> buf;
        buf.reserve(8);
        arena.release(std::move(buf));
    }
    EXPECT_EQ(arena.pooled(), DeliveryArena::kMaxPooled);
    const std::size_t bytesAtCap = arena.pooledBytes();
    std::vector<Delivery> overflow;
    overflow.reserve(8);
    arena.release(std::move(overflow));
    EXPECT_EQ(arena.pooled(), DeliveryArena::kMaxPooled);
    EXPECT_EQ(arena.pooledBytes(), bytesAtCap);

    // Unused capacity (capacity 0) is never worth pooling.
    arena.release(std::vector<Delivery>{});
    EXPECT_EQ(arena.pooled(), DeliveryArena::kMaxPooled);
}

TEST(MultiPortDifferential, RejectsEmptyPortList)
{
    test::ScopedPanicThrow guard;
    const MemConfig cfg{2, 2, 1, 1};
    const LowOrderInterleave map(2);
    EXPECT_THROW(simulateMultiPort(cfg, map, {}), std::runtime_error);
    EXPECT_THROW(sharedStepper().runPorts(cfg, {}, {}, true),
                 std::runtime_error);
}

} // namespace
} // namespace cfva
