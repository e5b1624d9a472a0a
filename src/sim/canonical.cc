#include "sim/canonical.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "common/logging.h"
#include "common/stride.h"

namespace cfva::sim {

const char *
to_string(DedupMode mode)
{
    switch (mode) {
      case DedupMode::Off:
        return "off";
      case DedupMode::On:
        return "on";
      case DedupMode::Audit:
        return "audit";
    }
    cfva_panic("unreachable dedup mode");
}

std::string
CanonicalKey::digest() const
{
    static const char hex[] = "0123456789abcdef";
    std::string out(32, '0');
    for (unsigned i = 0; i < 16; ++i)
        out[i] = hex[(hi >> (60 - 4 * i)) & 0xf];
    for (unsigned i = 0; i < 16; ++i)
        out[16 + i] = hex[(lo >> (60 - 4 * i)) & 0xf];
    return out;
}

std::int64_t
mixedStride(std::uint64_t baseStride, const PortMix &mix, unsigned p)
{
    const std::int64_t mult = mix.multiplierFor(p);
    const std::uint64_t mag =
        static_cast<std::uint64_t>(mult < 0 ? -mult : mult);
    cfva_assert(baseStride
                    <= (~std::uint64_t{0} >> 1) / (mag ? mag : 1),
                "port-mix stride ", baseStride, " * ", mult,
                " overflows");
    const std::int64_t scaled =
        static_cast<std::int64_t>(baseStride * mag);
    return mult < 0 ? -scaled : scaled;
}

AccessPlan
planPortStream(const ScenarioGrid &grid, const Scenario &sc,
               const VectorAccessUnit &unit, unsigned p, Addr a1,
               std::uint64_t baseStride, DeliveryArena *arena)
{
    const PortMix &mix = grid.portMixes[sc.portMixIndex];
    const std::int64_t stride = mixedStride(baseStride, mix, p);
    Addr start = a1 + Addr{p} * grid.portStagger;
    if (stride < 0) {
        start += (sc.length - 1)
                 * static_cast<std::uint64_t>(-stride);
    }
    return unit.plan(start, stride, sc.length,
                     arena ? arena->acquireRequests(sc.length)
                           : std::vector<Request>{},
                     /*explain=*/false);
}

namespace {

void
push32(std::vector<std::uint32_t> &words, std::uint32_t v)
{
    words.push_back(v);
}

void
push64(std::vector<std::uint32_t> &words, std::uint64_t v)
{
    words.push_back(static_cast<std::uint32_t>(v));
    words.push_back(static_cast<std::uint32_t>(v >> 32));
}

/** Length-prefixed byte packing, 4 chars per word, zero-padded. */
void
pushBytes(std::vector<std::uint32_t> &words, const std::string &s)
{
    push64(words, s.size());
    std::uint32_t acc = 0;
    unsigned have = 0;
    for (unsigned char c : s) {
        acc |= std::uint32_t{c} << (8 * have);
        if (++have == 4) {
            words.push_back(acc);
            acc = 0;
            have = 0;
        }
    }
    if (have)
        words.push_back(acc);
}

/**
 * Encodes one workload access: the plan policy + claim hint of
 * every port (the theory tier's claim decision reads them), then
 * the per-port module sequences of the post-plan streams under one
 * JOINT order-preserving relabeling — ranks are assigned over the
 * distinct modules of all ports together, sorted ascending, exactly
 * the OutcomeMemo canonicalization.  Joint ranking matters: the
 * multi-port arbiters compare module numbers across ports, so a
 * per-port relabeling would merge scenarios the engine times
 * differently.
 */
void
encodeAccess(CanonicalScratch &s, const ScenarioGrid &grid,
             const Scenario &sc, const VectorAccessUnit &unit,
             Addr a1, std::uint64_t baseStride, DeliveryArena *arena)
{
    const ModuleMapping &map = unit.mapping();
    const ModuleId modules = map.modules();

    if (s.portMods.size() < sc.ports)
        s.portMods.resize(sc.ports);
    s.portPolicy.clear();
    for (unsigned p = 0; p < sc.ports; ++p) {
        AccessPlan plan =
            planPortStream(grid, sc, unit, p, a1, baseStride, arena);
        s.portPolicy.push_back(
            (static_cast<std::uint32_t>(plan.policy) << 1)
            | (plan.expectConflictFree ? 1u : 0u));
        auto &mods = s.portMods[p];
        mods.resize(plan.stream.size());
        for (std::size_t i = 0; i < plan.stream.size(); ++i)
            mods[i] = map.moduleOf(plan.stream[i].addr);
        if (arena)
            arena->releaseRequests(std::move(plan.stream));
    }

    if (s.rankOf.size() < modules) {
        s.rankOf.resize(modules);
        s.rankEpoch.resize(modules, 0);
    }
    if (++s.epoch == 0) { // epoch wrap: invalidate every stamp
        std::fill(s.rankEpoch.begin(), s.rankEpoch.end(), 0);
        s.epoch = 1;
    }
    s.used.clear();
    for (unsigned p = 0; p < sc.ports; ++p) {
        for (ModuleId m : s.portMods[p]) {
            cfva_assert(m < modules, "module id ", m,
                        " out of range for ", modules, " modules");
            if (s.rankEpoch[m] != s.epoch) {
                s.rankEpoch[m] = s.epoch;
                s.used.push_back(m);
            }
        }
    }
    std::sort(s.used.begin(), s.used.end());
    for (ModuleId i = 0;
         i < static_cast<ModuleId>(s.used.size()); ++i)
        s.rankOf[s.used[i]] = i;

    push32(s.words, 0xFFFFFFFFu); // access separator
    for (unsigned p = 0; p < sc.ports; ++p) {
        push32(s.words, s.portPolicy[p]);
        push64(s.words, s.portMods[p].size());
        for (ModuleId m : s.portMods[p])
            push32(s.words, s.rankOf[m]);
    }
}

/** The dynamic scheme's tuning for @p family, clamped so the m-bit
 *  module field stays inside the 64-bit address (mirrors the sweep
 *  engine's execution-path clamp). */
unsigned
clampedTune(unsigned family, unsigned m)
{
    return std::min(family, 63u - m);
}

} // namespace

CanonicalKey
canonicalKey(const ScenarioGrid &grid, const Scenario &sc,
             const VectorAccessUnit &unit, WorkloadUnits *workloads,
             TierPolicy tier, DeliveryArena *arena,
             CanonicalScratch &scratch)
{
    const Workload &wl = grid.workloads[sc.workloadIndex];
    const PortMix &mix = grid.portMixes[sc.portMixIndex];

    scratch.words.clear();
    auto &w = scratch.words;

    // Header: every outcome-determining scalar.  describe() covers
    // the mapping shape (kind, M, T, L, s, y, p, seed, q, q'); the
    // tier changes the attribution columns of the report row, so it
    // is identity too.
    // The string is memoized per mapping index: it only varies
    // along the grid's mapping axis, and canonicalKey requires
    // @p unit to be that axis entry's unit.
    if (scratch.describeGrid != &grid
        || scratch.mappingDescribe.size() != grid.mappings.size()) {
        scratch.describeGrid = &grid;
        scratch.mappingDescribe.assign(grid.mappings.size(), {});
    }
    std::string &desc = scratch.mappingDescribe[sc.mappingIndex];
    if (desc.empty())
        desc = unit.config().describe();
    pushBytes(w, desc);
    push32(w, static_cast<std::uint32_t>(tier));
    push32(w, static_cast<std::uint32_t>(wl.kind));
    switch (wl.kind) {
      case WorkloadKind::Single:
        break;
      case WorkloadKind::Chain:
      case WorkloadKind::Stencil:
        push64(w, wl.execLatency);
        break;
      case WorkloadKind::Retune:
        push32(w, wl.retunePeriod);
        break;
    }
    // The stride folds in as its FAMILY, not its raw value: every
    // outcome column either is rewritten per member by
    // replayOutcome (stride, family) or depends on the stride only
    // through the family (inWindow, the dynamic scheme's tune
    // clamp, the Retune phase families x and x+1) or through the
    // post-plan module sequences encoded below (all timing).  Two
    // same-family strides whose planned streams are
    // order-isomorphic are therefore the same scenario.
    push32(w, Stride(sc.stride).family());
    push64(w, sc.length);
    push32(w, sc.ports);
    for (unsigned p = 0; p < sc.ports; ++p)
        push64(w, static_cast<std::uint64_t>(mix.multiplierFor(p)));

    // Body: the workload's access sequence, mirroring runScenario's
    // enumeration exactly — including the Retune phases' re-tuned
    // variant units, since the phase streams are planned and mapped
    // by the variant, not the base mapping.  Accesses that repeat
    // within a Retune phase are encoded once: the plan is
    // deterministic, so every repetition has the identical stream,
    // and the repetition count (retunePeriod) is in the header.
    switch (wl.kind) {
      case WorkloadKind::Single:
      case WorkloadKind::Chain:
        encodeAccess(scratch, grid, sc, unit, sc.a1, sc.stride,
                     arena);
        break;

      case WorkloadKind::Stencil:
        for (unsigned tap = 0; tap < 3; ++tap) {
            encodeAccess(scratch, grid, sc, unit,
                         sc.a1 + Addr{tap} * sc.stride, sc.stride,
                         arena);
        }
        encodeAccess(scratch, grid, sc, unit, sc.a1, sc.stride,
                     arena); // the store
        break;

      case WorkloadKind::Retune: {
        const VectorUnitConfig &cfg = unit.config();
        const bool dynamic = cfg.kind == MemoryKind::DynamicTuned;
        const unsigned m = dynamic ? cfg.m() : 0;
        unsigned current = dynamic ? cfg.dynamicTune : 0;
        const std::uint64_t phaseStrides[2] = {sc.stride,
                                               sc.stride * 2};
        for (std::uint64_t phaseStride : phaseStrides) {
            const VectorAccessUnit *phaseUnit = &unit;
            std::unique_ptr<VectorAccessUnit> ephemeral;
            if (dynamic) {
                const unsigned tune =
                    clampedTune(Stride(phaseStride).family(), m);
                if (tune != current)
                    current = tune;
                if (current != cfg.dynamicTune) {
                    if (workloads) {
                        phaseUnit = &workloads->retuned(
                            cfg, sc.mappingIndex, current);
                    } else {
                        VectorUnitConfig variant = cfg;
                        variant.dynamicTune = current;
                        ephemeral =
                            std::make_unique<VectorAccessUnit>(
                                variant);
                        phaseUnit = ephemeral.get();
                    }
                }
            }
            encodeAccess(scratch, grid, sc, *phaseUnit, sc.a1,
                         phaseStride, arena);
        }
        break;
      }
    }

    CanonicalKey key;
    key.words = w;
    // Both digests in one pass, a 64-bit block per step: classing
    // compares the full words, so the digests only have to spread
    // hash buckets — a byte-granular hash here costs more than the
    // whole rank canonicalization.  Distinct bases and odd
    // multipliers keep the two lanes independent.
    std::uint64_t hi = 0xcbf29ce484222325ull;
    std::uint64_t lo = 0x9e3779b97f4a7c15ull;
    const std::size_t n = key.words.size();
    for (std::size_t i = 0; i + 1 < n; i += 2) {
        const std::uint64_t c =
            key.words[i]
            | (std::uint64_t{key.words[i + 1]} << 32);
        hi = (hi ^ c) * 0x100000001b3ull;
        lo = (lo ^ c) * 0xff51afd7ed558ccdull;
    }
    if (n & 1) {
        const std::uint64_t c = key.words[n - 1];
        hi = (hi ^ c) * 0x100000001b3ull;
        lo = (lo ^ c) * 0xff51afd7ed558ccdull;
    }
    key.hi = hi;
    key.lo = lo;
    return key;
}

} // namespace cfva::sim
