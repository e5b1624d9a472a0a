/**
 * @file
 * Request orderings: canonical, subsequence, and conflict free.
 *
 * The paper's central idea (Secs. 3.1, 3.2, 4.2): because LOAD/STORE
 * always move one whole vector register, the elements may be
 * requested out of order.  Each period of the canonical module
 * sequence splits into subsequences of 2^t elements that provably
 * touch 2^t distinct modules (Lemma 2 for Eq. 1 with w = s, Lemma 4
 * for Eq. 2 with w = y); issuing subsequence-by-subsequence, and
 * replaying every subsequence in the key order of the first one,
 * yields a stream in which any T consecutive requests go to T
 * distinct modules — the conflict-free condition of Sec. 2.
 *
 * All orderings here are pure address-stream generators; the AGU
 * module models the hardware that produces the same streams
 * cycle-by-cycle (tests assert the two agree exactly).
 */

#ifndef CFVA_ACCESS_ORDERING_H
#define CFVA_ACCESS_ORDERING_H

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/stride.h"
#include "mapping/xor_matched.h"
#include "mapping/xor_sectioned.h"
#include "memsys/request.h"

namespace cfva {

/**
 * In-order (canonical) request stream: elements 0, 1, ..., L-1.
 * @p seed donates its capacity to the returned stream (pass a
 * recycled buffer — e.g. DeliveryArena::acquireRequests — to keep
 * the sweep hot path allocation free); its contents are discarded.
 */
std::vector<Request> canonicalOrder(Addr a1, const Stride &s,
                                    std::uint64_t length,
                                    std::vector<Request> seed = {});

/**
 * Appends elements first, first+1, ..., first+count-1 of the vector
 * (@p a1, @p s) to @p out in order: element e at a1 + S*e.
 */
void appendCanonicalOrder(std::vector<Request> &out, Addr a1,
                          const Stride &s, std::uint64_t first,
                          std::uint64_t count);

/**
 * Shape of the Fig. 4 out-of-order loop nest for one vector access.
 *
 * The plan is what the paper says the compiler precomputes: the
 * increments sigma*2^x and sigma*2^w and the trip counts.  w is the
 * XOR distance actually exploited: s for Lemma 2 subsequences
 * (matched memory, or unmatched with x <= s), y for Lemma 4
 * subsequences (unmatched with x > s).
 */
struct SubsequencePlan
{
    unsigned t = 0;           //!< log2 elements per subsequence
    unsigned w = 0;           //!< XOR distance used (s or y)
    unsigned x = 0;           //!< stride family exponent
    std::uint64_t sigma = 1;  //!< odd stride factor

    std::uint64_t length = 0;          //!< L, total elements
    std::uint64_t periodElems = 0;     //!< P_x = 2^{w+t-x}
    std::uint64_t periods = 0;         //!< L / P_x
    std::uint64_t subseqPerPeriod = 0; //!< 2^{w-x}
    std::uint64_t elemsPerSubseq = 0;  //!< 2^t

    Addr innerIncrement = 0;  //!< sigma * 2^w, within a subsequence
    Addr subseqIncrement = 0; //!< sigma * 2^x, between subsequences

    /** Element-index step between consecutive inner-loop elements. */
    std::uint64_t elementStep = 0; //!< 2^{w-x}

    /** Total subsequences in the access. */
    std::uint64_t
    subsequences() const
    {
        return periods * subseqPerPeriod;
    }
};

/**
 * Builds the Fig. 4 plan for a vector of @p length elements of
 * stride @p s accessed through an XOR mapping with distance @p w.
 *
 * Preconditions (asserted): x <= w, and length is a positive
 * multiple of the period 2^{w+t-x} — the Lemma 1 requirement
 * L = k * P_x that makes the vector T-matched (Theorem 1 / 3).
 */
SubsequencePlan makeSubsequencePlan(unsigned t, unsigned w,
                                    const Stride &s,
                                    std::uint64_t length);

/**
 * True iff a plan exists, i.e. x <= w and 2^{w+t-x} divides
 * @p length.  Use before makeSubsequencePlan when the stride is not
 * known to fall inside the conflict-free window.
 */
bool subsequencePlanExists(unsigned t, unsigned w, const Stride &s,
                           std::uint64_t length);

/**
 * The Sec. 3.1 ordering: subsequences issued back to back, each
 * traversed with the sigma*2^w increment (Fig. 4 control).  Each
 * subsequence is conflict free in isolation; the whole stream may
 * not be, but with q = 2 input buffers its latency exceeds the
 * minimum by at most T-1 cycles (paper citing [15]).
 */
std::vector<Request> subsequenceOrder(Addr a1,
                                      const SubsequencePlan &plan);

/**
 * The Sec. 3.2 / 4.2 conflict-free ordering for a matched memory:
 * like subsequenceOrder, but every subsequence after the first is
 * issued in the module order of the first subsequence, so the
 * temporal distribution of all subsequences is identical.
 */
std::vector<Request> conflictFreeOrder(Addr a1,
                                       const SubsequencePlan &plan,
                                       const XorMatchedMapping &map);

/**
 * The Sec. 4.2 conflict-free ordering for the sectioned (Eq. 2)
 * mapping.  For x <= s the reorder key is the supermodule number
 * (bits b_{t-1..0}); for x > s it is the section number (bits
 * b_{2t-1..t}).  Requires the paper's m = 2t shape (sectionBits ==
 * t) so each subsequence covers every key exactly once.
 */
std::vector<Request> conflictFreeOrder(Addr a1,
                                       const SubsequencePlan &plan,
                                       const XorSectionedMapping &map);

/**
 * Generic kernel used by both overloads, in append form: appends the
 * conflict-free order of elements first .. first+plan.length-1 of
 * the vector (@p a1, S = sigma*2^x) to @p out, element e at
 * a1 + S*e.  One walk of the Fig. 4 loop nest writes each element
 * straight into its slot: the first subsequence fixes the slot of
 * every @p key value, and every later subsequence is replayed in
 * that key order (Sec. 3.2 / 4.2).  @p key maps an address to a
 * value in [0, 2^t) and is called once per element; every
 * subsequence must contain each key exactly once (Lemmas 2 and 4
 * guarantee this for the supported mappings), which is asserted.
 */
template <typename Key>
void
appendConflictFreeOrder(std::vector<Request> &out, Addr a1,
                        const SubsequencePlan &plan,
                        std::uint64_t first, const Key &key)
{
    // Locals, not plan fields: the stores below could alias them.
    const std::uint64_t t_elems = plan.elemsPerSubseq;
    const std::uint64_t inner_increment = plan.innerIncrement;
    const std::uint64_t element_step = plan.elementStep;

    // Per key value: its issue slot in the first subsequence, and
    // one past the last subsequence that issued it (0 = none yet).
    struct KeySlot
    {
        std::uint64_t slot = 0;
        std::uint64_t stamp = 0;
    };
    std::vector<KeySlot> keys(t_elems);

    const std::size_t base = out.size();
    out.resize(base + plan.length);
    Request *block = out.data() + base;

    const Addr stride_value = plan.sigma << plan.x;
    std::uint64_t sub = 0;
    for (std::uint64_t k = 0; k < plan.periods; ++k) {
        for (std::uint64_t j = 0; j < plan.subseqPerPeriod;
             ++j, ++sub, block += t_elems) {
            std::uint64_t elem = first + k * plan.periodElems + j;
            Addr a = a1 + stride_value * elem;
            for (std::uint64_t i = 0; i < t_elems; ++i) {
                const std::uint64_t kappa = key(a);
                cfva_assert(kappa < t_elems, "reorder key ", kappa,
                            " out of range 2^t");
                KeySlot &ks = keys[kappa];
                if (sub == 0) {
                    cfva_assert(ks.stamp == 0, "duplicate key ", kappa,
                                " in first subsequence (Lemma 2/4 "
                                "violated)");
                    ks.slot = i;
                } else {
                    cfva_assert(ks.stamp == sub, "subsequence ", sub,
                                " does not cover key ", kappa,
                                " exactly once");
                }
                ks.stamp = sub + 1;
                block[ks.slot] = {a, elem};
                a += inner_increment;
                elem += element_step;
            }
        }
    }
}

/**
 * The keyed conflict-free stream of elements 0 .. L-1 (see
 * appendConflictFreeOrder).  @p seed donates capacity as in
 * canonicalOrder.
 */
template <typename Key>
std::vector<Request>
conflictFreeOrderByKey(Addr a1, const SubsequencePlan &plan,
                       const Key &key, std::vector<Request> seed = {})
{
    seed.clear();
    appendConflictFreeOrder(seed, a1, plan, 0, key);
    return seed;
}

} // namespace cfva

#endif // CFVA_ACCESS_ORDERING_H
