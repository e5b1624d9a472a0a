#include "core/access_unit.h"

#include <sstream>

#include "common/logging.h"
#include "mapping/dynamic.h"
#include "mapping/gf2_linear.h"
#include "mapping/prand.h"
#include "mapping/xor_matched.h"
#include "mapping/xor_sectioned.h"
#include "memsys/backend.h"
#include "memsys/backend_cache.h"
#include "theory/theory_backend.h"

namespace cfva {

const char *
to_string(AccessPolicy policy)
{
    switch (policy) {
      case AccessPolicy::InOrder:
        return "in-order";
      case AccessPolicy::ConflictFree:
        return "conflict-free";
      case AccessPolicy::SplitShort:
        return "split-short";
      case AccessPolicy::ChunkedByL:
        return "chunked-by-L";
    }
    return "?";
}

VectorAccessUnit::VectorAccessUnit(const VectorUnitConfig &cfg)
    : cfg_(cfg)
{
    cfg_.validate();

    const unsigned t = cfg_.t;
    const unsigned lambda = cfg_.lambda;

    switch (cfg_.kind) {
      case MemoryKind::Matched: {
        const unsigned s = cfg_.s();
        auto map = std::make_unique<XorMatchedMapping>(t, s);
        matched_ = map.get();
        mapping_ = std::move(map);
        window_ = theory::matchedWindow(s, t, lambda);
        break;
      }
      case MemoryKind::SimpleUnmatched: {
        const unsigned s = cfg_.s();
        const unsigned m = cfg_.m();
        auto map = std::make_unique<XorMatchedMapping>(m, s);
        matched_ = map.get();
        mapping_ = std::move(map);
        window_ = theory::simpleUnmatchedWindow(s, m, t, lambda);
        break;
      }
      case MemoryKind::Sectioned: {
        const unsigned s = cfg_.s();
        const unsigned y = cfg_.y();
        auto map = std::make_unique<XorSectionedMapping>(t, s, y);
        sectioned_ = map.get();
        mapping_ = std::move(map);
        const auto wins = theory::sectionedWindows(s, y, t, lambda);
        if (wins.fused()) {
            window_ = wins.fusedWindow();
        } else {
            cfva_warn("sectioned windows [", wins.low.lo, ",",
                      wins.low.hi, "] and [", wins.high.lo, ",",
                      wins.high.hi, "] do not fuse; window() reports "
                      "the hull but the gap is not conflict free");
            window_ = {wins.low.lo, wins.high.hi};
        }
        break;
      }
      case MemoryKind::DynamicTuned: {
        // Prior art [11]: in-order access is conflict free exactly
        // for the tuned family p; there is no out-of-order window.
        const unsigned p = cfg_.dynamicTune;
        mapping_ = std::make_unique<DynamicFieldMapping>(cfg_.m(), p);
        window_ = {static_cast<int>(p), static_cast<int>(p)};
        break;
      }
      case MemoryKind::PseudoRandom: {
        // Prior art [12]: no family is guaranteed minimum latency;
        // the window is empty and every access issues in order.
        // 48 address bits comfortably cover every sweep grid.
        mapping_ = std::make_unique<GF2LinearMapping>(
            makePseudoRandomMapping(cfg_.m(), 48, cfg_.prandSeed));
        window_ = {};
        break;
      }
    }
}

bool
VectorAccessUnit::inWindow(const Stride &s) const
{
    const unsigned x = s.family();
    if (cfg_.kind == MemoryKind::Sectioned) {
        const auto wins = theory::sectionedWindows(cfg_.s(), cfg_.y(),
                                                   cfg_.t, cfg_.lambda);
        return wins.low.contains(x) || wins.high.contains(x);
    }
    return window_.contains(x);
}

std::optional<unsigned>
VectorAccessUnit::windowW(unsigned x) const
{
    switch (cfg_.kind) {
      case MemoryKind::Matched:
      case MemoryKind::SimpleUnmatched:
        if (x <= cfg_.s())
            return cfg_.s();
        return std::nullopt;
      case MemoryKind::Sectioned:
        if (x <= cfg_.s())
            return cfg_.s();
        if (x <= cfg_.y())
            return cfg_.y();
        return std::nullopt;
      case MemoryKind::DynamicTuned:
      case MemoryKind::PseudoRandom:
        // No subsequence theorems apply to the prior-art mappings.
        return std::nullopt;
    }
    return std::nullopt;
}

bool
VectorAccessUnit::inOrderConflictFree(unsigned x) const
{
    switch (cfg_.kind) {
      case MemoryKind::Matched:
        // Eq. 1 in order: exactly the x = s family ([6]).
        return x == cfg_.s();
      case MemoryKind::SimpleUnmatched:
        // Eq. 1 with t -> m in order: s <= x <= s+m-t ([6]).
        return x >= cfg_.s()
               && x <= cfg_.s() + cfg_.m() - cfg_.t;
      case MemoryKind::Sectioned:
        // x = s: consecutive elements step the Eq. 1 core field by
        // sigma, so any T consecutive requests differ in the low t
        // module bits.  x = y: ditto for the section field.  These
        // are the paper's two any-length families (Sec. 5H).
        return x == cfg_.s() || x == cfg_.y();
      case MemoryKind::DynamicTuned:
        // The tuned family steps the module field by the odd sigma,
        // cycling all 2^m >= T modules: conflict free in order for
        // any length and start ([11]).
        return x == cfg_.dynamicTune;
      case MemoryKind::PseudoRandom:
        // By design nothing is guaranteed ([12]).
        return false;
    }
    return false;
}

template <typename Fn>
void
VectorAccessUnit::withReorderKey(unsigned x, Fn &&fn) const
{
    switch (cfg_.kind) {
      case MemoryKind::Matched: {
        // Key = the module number itself.
        const XorMatchedMapping &map = *matched_;
        fn([&map](Addr a) { return map.moduleOf(a); });
        return;
      }
      case MemoryKind::SimpleUnmatched: {
        // Key = low t bits of the module number: Lemma 2 guarantees
        // these cycle through all 2^t values in a subsequence, and
        // differing low bits imply differing modules.
        const XorMatchedMapping &map = *matched_;
        const ModuleId t_mask = (ModuleId{1} << cfg_.t) - 1;
        fn([&map, t_mask](Addr a) { return map.moduleOf(a) & t_mask; });
        return;
      }
      case MemoryKind::Sectioned: {
        const XorSectionedMapping &map = *sectioned_;
        if (x <= cfg_.s()) {
            // Supermodule order (Sec. 4.2 case i).
            fn([&map](Addr a) { return map.supermoduleOf(a); });
        } else {
            // Section order (Sec. 4.2 case ii).
            fn([&map](Addr a) { return map.sectionOf(a); });
        }
        return;
      }
      case MemoryKind::DynamicTuned:
      case MemoryKind::PseudoRandom:
        // windowW() is nullopt for these kinds, so the planner
        // never asks them for a reorder key.
        break;
    }
    cfva_panic("unreachable memory kind");
}

AccessPlan
VectorAccessUnit::planRegisters(Addr a1, const Stride &s,
                                std::uint64_t length,
                                std::vector<Request> seed,
                                bool explain) const
{
    const std::uint64_t reg_len = cfg_.registerLength();
    const std::uint64_t chunks = length / reg_len;
    const unsigned x = s.family();

    AccessPlan plan;
    plan.a1 = a1;
    plan.stride = s;
    plan.length = length;
    plan.stream = std::move(seed);
    plan.stream.clear();
    plan.stream.reserve(length);

    // The choice depends on the family alone, not on a1, so every
    // portion of a V = k*L access takes the same one.
    const bool explain_portion = explain && chunks == 1;
    bool portion_conflict_free = false;
    const auto w = windowW(x);
    if (inOrderConflictFree(x)) {
        plan.policy = AccessPolicy::InOrder;
        portion_conflict_free = true;
        appendCanonicalOrder(plan.stream, a1, s, 0, length);
        if (explain_portion) {
            std::ostringstream why;
            why << "family x=" << x
                << " is conflict free in order on "
                << mapping_->name();
            plan.rationale = why.str();
        }
    } else if (w && subsequencePlanExists(cfg_.t, *w, s, reg_len)) {
        plan.policy = AccessPolicy::ConflictFree;
        portion_conflict_free = true;
        const auto sub = makeSubsequencePlan(cfg_.t, *w, s, reg_len);
        withReorderKey(x, [&](const auto &key) {
            for (std::uint64_t c = 0; c < chunks; ++c) {
                appendConflictFreeOrder(plan.stream, a1, sub,
                                        c * reg_len, key);
            }
        });
        if (explain_portion) {
            std::ostringstream why;
            why << "family x=" << x << " in window via w=" << *w
                << ": Sec. " << (cfg_.kind == MemoryKind::Sectioned
                                 ? "4.2" : "3.2")
                << " out-of-order issue";
            plan.rationale = why.str();
        }
    } else {
        plan.policy = AccessPolicy::InOrder;
        appendCanonicalOrder(plan.stream, a1, s, 0, length);
        if (explain_portion) {
            std::ostringstream why;
            why << "family x=" << x << " outside every window (vector "
                << "not T-matched); canonical order";
            plan.rationale = why.str();
        }
    }

    // Seams between portions are not covered by Theorem 1/3; only a
    // fully in-order stream keeps the guarantee end to end.  Each
    // seam may cost up to T-1 cycles, which the simulator measures
    // honestly.
    plan.expectConflictFree =
        portion_conflict_free && (chunks == 1 || inOrderConflictFree(x));
    if (chunks > 1) {
        plan.policy = AccessPolicy::ChunkedByL;
        if (explain) {
            std::ostringstream why;
            why << "V = " << chunks << " * L: per-portion scheme "
                << "(Sec. 5C case ii)";
            plan.rationale = why.str();
        }
    }
    return plan;
}

AccessPlan
VectorAccessUnit::plan(Addr a1, const Stride &s,
                       std::uint64_t length,
                       std::vector<Request> seed,
                       bool explain) const
{
    cfva_assert(length > 0, "empty access");
    const std::uint64_t reg_len = cfg_.registerLength();
    const unsigned x = s.family();

    if (length % reg_len == 0) {
        // V = L, or Sec. 5C case ii: multiple-size registers; apply
        // the register-length scheme to each portion.
        return planRegisters(a1, s, length, std::move(seed), explain);
    }

    if (inOrderConflictFree(x)) {
        AccessPlan plan;
        plan.policy = AccessPolicy::InOrder;
        plan.a1 = a1;
        plan.stride = s;
        plan.length = length;
        plan.expectConflictFree = true;
        plan.stream = canonicalOrder(a1, s, length, std::move(seed));
        if (explain) {
            plan.rationale = "in-order family; any length is "
                             "conflict free";
        }
        return plan;
    }

    // Sec. 5C case i: short vector; split into an out-of-order head
    // of length k*2^{w+t-x} and an in-order tail.
    AccessPlan plan;
    plan.policy = AccessPolicy::SplitShort;
    plan.a1 = a1;
    plan.stride = s;
    plan.length = length;

    const auto w = windowW(x);
    if (!w) {
        plan.policy = AccessPolicy::InOrder;
        plan.expectConflictFree = false;
        plan.stream = canonicalOrder(a1, s, length, std::move(seed));
        if (explain) {
            plan.rationale = "family outside every window; "
                             "canonical order";
        }
        return plan;
    }

    const auto split = planShortVector(cfg_.t, *w, s, length);
    withReorderKey(x, [&](const auto &key) {
        plan.stream = shortVectorOrder(a1, s, split, key, std::move(seed));
    });
    plan.expectConflictFree =
        split.hasReorderedPart() && split.ordered == 0;
    if (explain) {
        std::ostringstream why;
        why << "short vector: " << split.reordered
            << " elements out of order + " << split.ordered
            << " in order (Sec. 5C)";
        plan.rationale = why.str();
    }
    return plan;
}

AccessPlan
VectorAccessUnit::plan(Addr a1, std::int64_t stride,
                       std::uint64_t length,
                       std::vector<Request> seed,
                       bool explain) const
{
    cfva_assert(stride != 0, "stride must be nonzero");
    cfva_assert(length > 0, "empty access");
    if (stride > 0)
        return plan(a1, Stride(static_cast<std::uint64_t>(stride)),
                    length, std::move(seed), explain);

    // |S| in unsigned arithmetic: -stride overflows for INT64_MIN,
    // and (length-1)*|S| can wrap past a1, so compare by division.
    const std::uint64_t mag = 0 - static_cast<std::uint64_t>(stride);
    cfva_assert(length - 1 <= a1 / mag,
                "negative-stride access underflows address 0: a1=",
                a1, ", |S|=", mag, ", V=", length);

    // Walk the same addresses from the low end and mirror the
    // element numbering: element i of the descending vector is
    // element length-1-i of the ascending one.
    const Addr low_a1 = a1 - (length - 1) * mag;
    AccessPlan p = plan(low_a1, Stride(mag), length,
                        std::move(seed), explain);
    for (auto &req : p.stream)
        req.element = length - 1 - req.element;
    p.a1 = a1;
    if (explain)
        p.rationale += " (descending: mirrored from ascending twin)";
    return p;
}

AccessResult
VectorAccessUnit::execute(const AccessPlan &plan,
                          DeliveryArena *arena, BackendCache *cache,
                          TierPolicy tier, TierCounters *tiers,
                          MapPath, CollapseMode, ResultDetail) const
{
    cfva_assert(tier != TierPolicy::AuditBoth,
                "AuditBoth is resolved by the caller running both "
                "tiers; execute() takes a single tier");
    BackendCache local;
    BackendCache &backends = cache ? *cache : local;
    if (tier == TierPolicy::SimulateAlways) {
        if (tiers)
            tiers->add(false);
        return backends.backendFor(cfg_.memConfig(), *mapping_)
            .runSingle(plan.stream, arena);
    }
    // Certified plans are claimed on the planner's window theorems,
    // O(1) per access.  Everything else tries the O(L)
    // proof — the windows are sufficient, not necessary, so
    // out-of-window streams can still be conflict free — then the
    // steady-state solver, whose stepper pass is also the answer
    // when nothing recurs.
    TheoryBackend &tb =
        backends.theoryBackendFor(cfg_.memConfig(), *mapping_);
    AccessResult r =
        plan.expectConflictFree
            ? tb.runSingleCertified(plan.stream)
            : tb.runSingle(plan.stream);
    if (tiers) {
        tiers->add(tb.lastClaimed());
        tiers->lastReason = tb.lastReason();
    }
    return r;
}

MultiPortResult
VectorAccessUnit::executePorts(
    const std::vector<std::vector<Request>> &streams,
    DeliveryArena *arena, BackendCache *cache, TierPolicy tier,
    TierCounters *tiers, MapPath, CollapseMode, ResultDetail) const
{
    cfva_assert(tier != TierPolicy::AuditBoth,
                "AuditBoth is resolved by the caller running both "
                "tiers; executePorts() takes a single tier");
    BackendCache local;
    BackendCache &backends = cache ? *cache : local;
    if (tier == TierPolicy::SimulateAlways) {
        if (tiers)
            tiers->add(false);
        return backends.backendFor(cfg_.memConfig(), *mapping_)
            .run(streams, arena);
    }
    TheoryBackend &tb =
        backends.theoryBackendFor(cfg_.memConfig(), *mapping_);
    MultiPortResult r = tb.runPorts(streams);
    if (tiers) {
        tiers->add(tb.lastClaimed());
        tiers->lastReason = tb.lastReason();
    }
    return r;
}

AccessResult
VectorAccessUnit::access(Addr a1, const Stride &s,
                         std::uint64_t length) const
{
    return execute(plan(a1, s, length));
}

} // namespace cfva
