/**
 * @file
 * Short-vector access planning (paper Sec. 5C).
 *
 * The out-of-order scheme needs the length to be a multiple of
 * 2^{w+t-x}.  A vector shorter than the register length L is split
 * into a head of length V1 = k * 2^{w+t-x} (the largest such
 * multiple <= V) accessed with the conflict-free ordering, and a
 * tail of V - V1 elements accessed in order.  The paper notes this
 * split can be done by the compiler when the length is known
 * statically; planShortVector is that compiler step.
 */

#ifndef CFVA_ACCESS_SHORT_VECTOR_H
#define CFVA_ACCESS_SHORT_VECTOR_H

#include "access/ordering.h"

namespace cfva {

/** The compiler's split of a short vector (Sec. 5C case i). */
struct ShortVectorPlan
{
    std::uint64_t total = 0;      //!< V, requested element count
    std::uint64_t reordered = 0;  //!< V1, head handled out of order
    std::uint64_t ordered = 0;    //!< V - V1, in-order tail

    /** Fig. 4 plan for the head; meaningful iff reordered > 0. */
    SubsequencePlan head;

    bool
    hasReorderedPart() const
    {
        return reordered > 0;
    }
};

/**
 * Splits a vector of @p length elements of stride @p s into the
 * Sec. 5C head/tail pair for XOR distance @p w.
 *
 * When x > w no out-of-order head exists (the family is outside the
 * window) and the whole vector is planned in order.
 */
ShortVectorPlan planShortVector(unsigned t, unsigned w,
                                const Stride &s, std::uint64_t length);

/**
 * Emits the full request stream of a planned short vector: the
 * conflict-free head (keyed reordering, see appendConflictFreeOrder)
 * followed by the in-order tail, both written straight into one
 * buffer.  @p seed donates capacity as in canonicalOrder.
 */
template <typename Key>
std::vector<Request>
shortVectorOrder(Addr a1, const Stride &s, const ShortVectorPlan &plan,
                 const Key &key, std::vector<Request> seed = {})
{
    seed.clear();
    seed.reserve(plan.total);
    if (plan.hasReorderedPart())
        appendConflictFreeOrder(seed, a1, plan.head, 0, key);
    appendCanonicalOrder(seed, a1, s, plan.reordered, plan.ordered);
    return seed;
}

/** Convenience overload for the matched (Eq. 1) mapping. */
std::vector<Request>
shortVectorOrder(Addr a1, const Stride &s, const ShortVectorPlan &plan,
                 const XorMatchedMapping &map);

} // namespace cfva

#endif // CFVA_ACCESS_SHORT_VECTOR_H
