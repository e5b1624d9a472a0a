/**
 * @file
 * VectorAccessUnit: the library's primary public API.
 *
 * Ties the whole system together: given a configuration (memory
 * shape + register length), it owns the address mapping, selects
 * the right ordering for each (A1, S, V) access — conflict-free
 * out-of-order inside the Theorem 1/3 windows, in-order where the
 * mapping is conflict free anyway, the Sec. 5C split for short
 * vectors — runs the request stream through the cycle-accurate
 * memory simulator, and reports the measured latency.
 */

#ifndef CFVA_CORE_ACCESS_UNIT_H
#define CFVA_CORE_ACCESS_UNIT_H

#include <string>
#include <vector>

#include "access/ordering.h"
#include "access/short_vector.h"
#include "core/config.h"
#include "mapping/mapping.h"
#include "memsys/memory_system.h"
#include "theory/theory.h"

namespace cfva {

class BackendCache;

/** How the unit decided to issue one access. */
enum class AccessPolicy
{
    InOrder,        //!< canonical order (in-window for x = s family,
                    //!< or fallback outside every window)
    ConflictFree,   //!< Sec. 3.2 / 4.2 reordering, minimum latency
    SplitShort,     //!< Sec. 5C head/tail split (V < L)
    ChunkedByL,     //!< Sec. 5C case ii: V = k*L, per-chunk scheme
};

const char *to_string(AccessPolicy policy);

/** A fully materialized access: policy, rationale, request stream. */
struct AccessPlan
{
    AccessPolicy policy = AccessPolicy::InOrder;
    Addr a1 = 0;
    Stride stride{1};
    std::uint64_t length = 0;

    /** Requests in issue order. */
    std::vector<Request> stream;

    /** True iff the plan should achieve minimum latency L+T+1. */
    bool expectConflictFree = false;

    /** Human-readable explanation of the choice (for examples);
     *  empty when the caller opted out (plan(..., explain=false) —
     *  the sweep hot path does, the strings cost more than the
     *  ordering decision itself). */
    std::string rationale;
};

/**
 * The vector memory-access module of Figure 1, combining mapping,
 * ordering selection, and the multi-module memory model.
 */
class VectorAccessUnit
{
  public:
    /** Builds the unit; the configuration is validated. */
    explicit VectorAccessUnit(const VectorUnitConfig &cfg);

    /** The conflict-free window of stride families this unit
     *  achieves for full-register accesses (Theorems 1 / 3). */
    theory::FamilyWindow window() const { return window_; }

    /** True iff family of @p s is inside window() — i.e. a
     *  full-register access of this stride is conflict free. */
    bool inWindow(const Stride &s) const;

    /**
     * Chooses an ordering for a vector access of @p length elements
     * with stride @p s starting at @p a1 (any address).  @p seed
     * donates its capacity to the plan's stream vector — pass a
     * recycled buffer (DeliveryArena::acquireRequests) to keep
     * batch planning allocation free; contents are discarded.
     * @p explain false skips building the rationale string.
     */
    AccessPlan plan(Addr a1, const Stride &s, std::uint64_t length,
                    std::vector<Request> seed = {},
                    bool explain = true) const;

    /**
     * Signed-stride overload.  The paper's analysis is symmetric in
     * the stride sign (Sec. 2 note): a negative stride visits the
     * same modules as the positive one walked from the other end,
     * so the plan is built for |S| from the lowest address and the
     * element indices are mirrored.  @p stride must be nonzero, and
     * for negative strides a1 >= (length-1)*|S| so no address
     * underflows.
     */
    AccessPlan plan(Addr a1, std::int64_t stride,
                    std::uint64_t length,
                    std::vector<Request> seed = {},
                    bool explain = true) const;

    /**
     * Runs a plan through a memory backend: under SimulateAlways the
     * reference engine config().engine selects — the per-cycle
     * oracle or the event-driven engine; both produce identical
     * results.  When @p arena is given, the result's delivery
     * buffer is recycled through it.
     * When @p cache is given, the backend instance is taken from it
     * (and built into it on first use) instead of being rebuilt for
     * this one access — the sweep engine passes each worker's cache
     * so modules and event heaps are reused across all scenarios.
     *
     * @p tier selects the evaluation tier: SimulateAlways runs the
     * engine; TheoryFirst hands the plan to the analytic
     * TheoryBackend, which claims what it can prove and steps the
     * rest on the event-driven stepper (config().engine and
     * @p collapse do not apply to it).
     * AuditBoth is resolved a layer up (runScenario runs both tiers
     * and compares); passing it here is an error.  When @p tiers is
     * given, the access is attributed to it as claimed or fallback
     * (under SimulateAlways: always fallback).
     *
     * @p path selects the backend's stream-premap variant (see
     * makeMemoryBackend); results are bit-identical either way.
     * @p collapse gates the single-port periodic fast path (also
     * bit-identical; Off is the pure stepped oracle).
     *
     * @p detail selects how much of a theory-claimed result is
     * materialized (see ResultDetail; simulated results are always
     * full).  Under TheoryFirst a plan the planner certified
     * conflict free (AccessPlan::expectConflictFree) is claimed
     * directly from the paper's window theorems — O(1) per access
     * when @p detail skips the deliveries — instead of being
     * re-proved element by element.
     */
    AccessResult execute(const AccessPlan &plan,
                         DeliveryArena *arena = nullptr,
                         BackendCache *cache = nullptr,
                         TierPolicy tier = TierPolicy::SimulateAlways,
                         TierCounters *tiers = nullptr,
                         MapPath path = MapPath::BitSliced,
                         CollapseMode collapse = CollapseMode::On,
                         ResultDetail detail =
                             ResultDetail::Full) const;

    /**
     * Runs P = streams.size() simultaneous request streams through
     * the port-aware backend selected by config().engine.  The
     * engine knob is honored for every port count of the simulation
     * tier; the per-cycle and event-driven backends produce
     * bit-identical results.  @p cache, @p tier, @p tiers, @p path,
     * @p detail as in execute(); the theory tier claims P > 1
     * accesses whose port streams are provably module-disjoint and
     * steps the rest on the event-driven multi-port engine.
     */
    MultiPortResult
    executePorts(const std::vector<std::vector<Request>> &streams,
                 DeliveryArena *arena = nullptr,
                 BackendCache *cache = nullptr,
                 TierPolicy tier = TierPolicy::SimulateAlways,
                 TierCounters *tiers = nullptr,
                 MapPath path = MapPath::BitSliced,
                 CollapseMode collapse = CollapseMode::On,
                 ResultDetail detail = ResultDetail::Full) const;

    /** plan() + execute() in one call. */
    AccessResult access(Addr a1, const Stride &s,
                        std::uint64_t length) const;

    const VectorUnitConfig &config() const { return cfg_; }
    const ModuleMapping &mapping() const { return *mapping_; }
    MemConfig memConfig() const { return cfg_.memConfig(); }

  private:
    /** Plans an access of k >= 1 whole registers (length = k * L):
     *  the full-register scheme, applied to each portion when
     *  k > 1 (Sec. 5C case ii). */
    AccessPlan planRegisters(Addr a1, const Stride &s,
                             std::uint64_t length,
                             std::vector<Request> seed,
                             bool explain) const;

    /** Calls @p fn with the concrete reorder key for conflict-free
     *  issue at family @p x; windowW(x) must be set. */
    template <typename Fn>
    void withReorderKey(unsigned x, Fn &&fn) const;

    /** The XOR distance (w = s or y) to use for family @p x, or
     *  nullopt when x is outside every out-of-order window. */
    std::optional<unsigned> windowW(unsigned x) const;

    /** True iff in-order access of family @p x is conflict free on
     *  this mapping for any length (x = s matched; [s, s+m-t] for
     *  the simple unmatched mapping). */
    bool inOrderConflictFree(unsigned x) const;

    VectorUnitConfig cfg_;
    MappingPtr mapping_;
    const XorMatchedMapping *matched_ = nullptr;   // typed views
    const XorSectionedMapping *sectioned_ = nullptr;
    theory::FamilyWindow window_;
};

} // namespace cfva

#endif // CFVA_CORE_ACCESS_UNIT_H
