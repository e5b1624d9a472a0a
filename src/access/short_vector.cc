#include "access/short_vector.h"

#include "common/logging.h"

namespace cfva {

ShortVectorPlan
planShortVector(unsigned t, unsigned w, const Stride &s,
                std::uint64_t length)
{
    cfva_assert(length > 0, "vector length must be positive");

    ShortVectorPlan plan;
    plan.total = length;

    if (s.family() > w) {
        // Family outside the window: no T-matched head exists.
        plan.reordered = 0;
        plan.ordered = length;
        return plan;
    }

    const std::uint64_t period =
        std::uint64_t{1} << (w + t - s.family());
    plan.reordered = (length / period) * period;
    plan.ordered = length - plan.reordered;
    if (plan.reordered > 0)
        plan.head = makeSubsequencePlan(t, w, s, plan.reordered);
    return plan;
}

std::vector<Request>
shortVectorOrder(Addr a1, const Stride &s, const ShortVectorPlan &plan,
                 const XorMatchedMapping &map)
{
    return shortVectorOrder(a1, s, plan,
                            [&](Addr a) { return map.moduleOf(a); });
}

} // namespace cfva
