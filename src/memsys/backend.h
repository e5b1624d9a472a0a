/**
 * @file
 * The vocabulary shared by the two ways an access is answered.
 *
 * An access maps (streams, config, mapping) to a MultiPortResult,
 * where the single-port access every earlier layer was built around
 * is simply the P = 1 case.  Two plain classes answer it, each with
 * its own entry points:
 *
 * - MemorySystem (memsys/memory_system.h): the stepped oracle, every
 *   cycle of the paper's Fig. 2 machine, for any port count.
 * - TheoryBackend (theory/theory_backend.h): the evaluator, which
 *   claims what the paper's windows, an O(L) proof or the
 *   steady-state solver can answer and steps the rest on the event
 *   stepper (memsys/event_driven.h).  It answers aggregates only;
 *   the oracle is the one source of Delivery records.
 *
 * TierPolicy, the one switch between them, lives here so the
 * dispatch is decided at the memsys layer and every consumer —
 * VectorAccessUnit, the sweep engine, tools — honors it for all
 * port counts.  BackendCache (memsys/backend_cache.h) keeps one
 * instance of each per worker.
 */

#ifndef CFVA_MEMSYS_BACKEND_H
#define CFVA_MEMSYS_BACKEND_H

#include <vector>

#include "memsys/request.h"

namespace cfva {

/**
 * Which evaluation tier answers an access: the stepped oracle, the
 * evaluator (theory/theory_backend.h), or both with a bit-for-bit
 * cross-check.
 */
enum class TierPolicy
{
    /** Step the oracle (memsys/memory_system.h) — the library
     *  default. */
    SimulateAlways,

    /**
     * The evaluator: claim with the paper's windows, the O(L)
     * proof or the steady-state solver, and step what no claim
     * covers on the event stepper.  Answers the oracle's aggregates
     * with no Delivery, bit-identical by construction (the audit
     * tier enforces it).
     */
    TheoryFirst,

    /** Run both tiers on every scenario and flag any divergence. */
    AuditBoth,
};

const char *to_string(TierPolicy tier);

/**
 * Ignored everywhere: the evaluator answers aggregates only, and the
 * stepped oracle always writes every Delivery.  The names stay only
 * while the benchmark passes them to execute()/executePorts()
 * (ROADMAP item 2).
 */
enum class ResultDetail
{
    Full,
    Summary,
    SummaryIfUniform,
};

/**
 * Why the theory tier stepped an access instead of claiming it.
 * None means the access was answered analytically (or the theory
 * tier was not active at all).  The reason is a deterministic
 * function of the mapping and the planned module sequence, never of
 * which worker's cache or memo answered, so reports stay identical at
 * any thread count and shard.
 */
enum class FallbackReason : std::uint8_t
{
    /** Answered analytically, or the theory tier was inactive. */
    None = 0,

    /** The planner's windows said the stream conflicts and the
     *  steady-state solver could not close its form (aperiodic or
     *  too short for a recurrence). */
    Conflicted = 1,

    /** A P > 1 access whose ports share modules (or whose ports
     *  were not all analytically answerable). */
    MultiPort = 2,

    /** No library path produces it (every uncertified single-port
     *  fallback is Conflicted); the name stays only while the
     *  benchmark names it (ROADMAP item 2). */
    Unproven = 3,

    /** The mapping is dynamically re-tuned; its fallbacks are
     *  attributed to the scheme, not the stream. */
    Dynamic = 4,
};

const char *to_string(FallbackReason reason);

/** Per-run attribution of theory-tier claims vs fallbacks. */
struct TierCounters
{
    std::uint64_t claimed = 0;  //!< accesses answered analytically
    std::uint64_t fallback = 0; //!< accesses that were stepped

    /** Reason of the most recent fallback (None after a claim);
     *  callers that need per-access taxonomy read it after each
     *  execute. */
    FallbackReason lastReason = FallbackReason::None;

    void
    add(bool wasClaimed)
    {
        if (wasClaimed)
            ++claimed;
        else
            ++fallback;
    }

    bool operator==(const TierCounters &o) const = default;
};

/**
 * Per-worker bump arena for the sweep hot path: freelists of
 * Delivery result buffers and Request stream buffers, recycled
 * across accesses so tight sweeps stop paying heap allocations
 * (plus growth doublings) per access.  Backends acquire() their
 * result buffers from it when one is supplied; the caller
 * release()s the buffers once the records have been consumed.
 * Stream builders use acquireRequests()/releaseRequests() the same
 * way.  Not thread-safe: use one arena per worker thread (the sweep
 * engine keeps one per worker).
 *
 * Both pools are bounded: at most kMaxPooled buffers are retained
 * per kind, and a released buffer whose capacity exceeds
 * kMaxPooledCapacity is freed instead of pooled — one pathological
 * large-L access must not pin a peak-sized buffer for the rest of a
 * long sweep.
 *
 * The arena also keeps high-water accounting: acquires()/reuses()
 * count how many buffer requests were served and how many of those
 * came from the pools instead of the allocator, and peakBytes() is
 * the high-water mark of retained pool capacity.  The sweep engine
 * folds these into SweepRunStats.
 */
class DeliveryArena
{
  public:
    /** Most buffers each freelist retains; further releases free. */
    static constexpr std::size_t kMaxPooled = 64;

    /** Largest per-buffer capacity (in records) worth retaining;
     *  oversize buffers are freed on release. */
    static constexpr std::size_t kMaxPooledCapacity =
        std::size_t{1} << 14;

    /** An empty buffer with at least @p capacity reserved. */
    std::vector<Delivery> acquire(std::size_t capacity);

    /** Returns a buffer's capacity to the freelist (or frees it
     *  when the pool is full or the buffer is oversize). */
    void release(std::vector<Delivery> &&buf);

    /** An empty Request buffer with @p capacity reserved. */
    std::vector<Request> acquireRequests(std::size_t capacity);

    /** Returns a Request buffer's capacity to its freelist. */
    void releaseRequests(std::vector<Request> &&buf);

    /** Delivery buffers currently pooled (for tests). */
    std::size_t pooled() const { return pool_.size(); }

    /** Request buffers currently pooled (for tests). */
    std::size_t pooledRequests() const { return reqPool_.size(); }

    /** Total bytes of capacity both pools retain (for tests). */
    std::size_t pooledBytes() const;

    /** Buffer requests served (both kinds). */
    std::uint64_t acquires() const { return acquires_; }

    /** Buffer requests served from a pool (no allocator call). */
    std::uint64_t reuses() const { return reuses_; }

    /** High-water mark of retained pool capacity, in bytes. */
    std::size_t peakBytes() const { return peakBytes_; }

  private:
    void noteRetained(std::size_t bytes);

    std::vector<std::vector<Delivery>> pool_;
    std::vector<std::vector<Request>> reqPool_;
    std::uint64_t acquires_ = 0;
    std::uint64_t reuses_ = 0;
    std::size_t retainedBytes_ = 0;
    std::size_t peakBytes_ = 0;
};

} // namespace cfva

#endif // CFVA_MEMSYS_BACKEND_H
