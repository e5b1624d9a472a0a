/**
 * @file
 * The paper's Eq. 1 XOR linear transformation for matched memories.
 *
 * For a matched memory (M = T = 2^t) the module number is
 *
 *     b_i = a_i XOR a_{s+i},   s >= t,  0 <= i <= t-1        (Eq. 1)
 *
 * i.e. b = a_{t-1..0} XOR a_{s+t-1..s}.  With in-order requests this
 * mapping is conflict free exactly for the stride family x = s, any
 * vector length, any initial address (Harper [6]); the paper's
 * contribution widens that to the whole window s-N <= x <= s via
 * out-of-order access.  Figure 3 of the paper shows the m = t = 3,
 * s = 3 instance.
 */

#ifndef CFVA_MAPPING_XOR_MATCHED_H
#define CFVA_MAPPING_XOR_MATCHED_H

#include "mapping/mapping.h"

namespace cfva {

/** Eq. 1 mapping: b = a_{t-1..0} XOR a_{s+t-1..s}. */
class XorMatchedMapping final : public ModuleMapping
{
  public:
    /**
     * Creates the Eq. 1 mapping.
     *
     * @param t  log2 of the number of modules (= log2 of the
     *           memory/processor cycle ratio for a matched system)
     * @param s  XOR distance; must satisfy s >= t
     */
    XorMatchedMapping(unsigned t, unsigned s);

    ModuleId
    moduleOf(Addr a) const override
    {
        return static_cast<ModuleId>(bitField(a, 0, t_)
                                     ^ bitField(a, s_, t_));
    }

    Addr displacementOf(Addr a) const override;
    Addr addressOf(ModuleId module, Addr displacement) const override;
    unsigned moduleBits() const override { return t_; }
    std::string name() const override;

    /** The XOR distance s of Eq. 1. */
    unsigned xorDistance() const { return s_; }

    /** log2 of the module count (t = m for matched memory). */
    unsigned t() const { return t_; }

    /**
     * The period P_x (in elements) of the canonical temporal
     * distribution for stride family @p x: P_x = 2^{s+t-x}, clamped
     * to 1 when x > s+t (paper Sec. 3).
     */
    std::uint64_t period(unsigned x) const;

  private:
    unsigned t_;
    unsigned s_;
};

} // namespace cfva

#endif // CFVA_MAPPING_XOR_MATCHED_H
