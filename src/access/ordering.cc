#include "access/ordering.h"

#include "common/logging.h"

namespace cfva {

std::vector<Request>
canonicalOrder(Addr a1, const Stride &s, std::uint64_t length,
               std::vector<Request> seed)
{
    seed.clear();
    appendCanonicalOrder(seed, a1, s, 0, length);
    return seed;
}

void
appendCanonicalOrder(std::vector<Request> &out, Addr a1, const Stride &s,
                     std::uint64_t first, std::uint64_t count)
{
    const std::size_t base = out.size();
    out.resize(base + count);
    Request *dst = out.data() + base;
    const Addr step = s.value();
    Addr a = a1 + step * first;
    for (std::uint64_t i = 0; i < count; ++i, a += step)
        dst[i] = {a, first + i};
}

bool
subsequencePlanExists(unsigned t, unsigned w, const Stride &s,
                      std::uint64_t length)
{
    if (s.family() > w)
        return false;
    const std::uint64_t period =
        std::uint64_t{1} << (w + t - s.family());
    return length > 0 && length % period == 0;
}

SubsequencePlan
makeSubsequencePlan(unsigned t, unsigned w, const Stride &s,
                    std::uint64_t length)
{
    cfva_assert(subsequencePlanExists(t, w, s, length),
                "no Fig. 4 plan for x=", s.family(), ", w=", w,
                ", t=", t, ", L=", length,
                " (need x <= w and 2^{w+t-x} | L)");

    SubsequencePlan plan;
    plan.t = t;
    plan.w = w;
    plan.x = s.family();
    plan.sigma = s.sigma();
    plan.length = length;
    plan.periodElems = std::uint64_t{1} << (w + t - plan.x);
    plan.periods = length / plan.periodElems;
    plan.subseqPerPeriod = std::uint64_t{1} << (w - plan.x);
    plan.elemsPerSubseq = std::uint64_t{1} << t;
    plan.innerIncrement = plan.sigma << w;
    plan.subseqIncrement = plan.sigma << plan.x;
    plan.elementStep = plan.subseqPerPeriod;
    return plan;
}

std::vector<Request>
subsequenceOrder(Addr a1, const SubsequencePlan &plan)
{
    // Fig. 4: for each period K, for each subsequence J, walk 2^t
    // elements incrementing the address by sigma*2^w; consecutive
    // subsequence heads (and the period seam) are sigma*2^x apart.
    // Element indices follow the same structure with the address
    // stride replaced by the element step 2^{w-x}.
    std::vector<Request> stream;
    stream.reserve(plan.length);

    const Addr stride_value = plan.sigma << plan.x;
    for (std::uint64_t k = 0; k < plan.periods; ++k) {
        const std::uint64_t period_first = k * plan.periodElems;
        for (std::uint64_t j = 0; j < plan.subseqPerPeriod; ++j) {
            std::uint64_t elem = period_first + j;
            Addr a = a1 + stride_value * elem;
            for (std::uint64_t i = 0; i < plan.elemsPerSubseq; ++i) {
                stream.push_back({a, elem});
                a += plan.innerIncrement;
                elem += plan.elementStep;
            }
        }
    }
    return stream;
}

std::vector<Request>
conflictFreeOrder(Addr a1, const SubsequencePlan &plan,
                  const XorMatchedMapping &map)
{
    cfva_assert(plan.w == map.xorDistance(),
                "plan built for w=", plan.w, " but mapping has s=",
                map.xorDistance());
    return conflictFreeOrderByKey(
        a1, plan, [&](Addr a) { return map.moduleOf(a); });
}

std::vector<Request>
conflictFreeOrder(Addr a1, const SubsequencePlan &plan,
                  const XorSectionedMapping &map)
{
    cfva_assert(map.sectionBits() == map.t(),
                "Sec. 4.2 reordering needs the paper's m = 2t shape");
    if (plan.x <= map.xorDistance()) {
        cfva_assert(plan.w == map.xorDistance(),
                    "x <= s must use Lemma 2 subsequences (w = s)");
        return conflictFreeOrderByKey(
            a1, plan, [&](Addr a) { return map.supermoduleOf(a); });
    }
    cfva_assert(plan.w == map.sectionPos(),
                "x > s must use Lemma 4 subsequences (w = y)");
    return conflictFreeOrderByKey(
        a1, plan, [&](Addr a) { return map.sectionOf(a); });
}

} // namespace cfva
