/**
 * @file
 * The paper's Eq. 2 sectioned XOR transformation (unmatched memory).
 *
 * For an unmatched memory with M = 2^m modules, m = 2t, the module
 * number combines two fields:
 *
 *     b_i = a_i XOR a_{s+i}   0 <= i <= t-1,   s >= t        (Eq. 2)
 *     b_i = a_{y+i-t}         t <= i <= 2t-1,  y >= s+t
 *
 * The modules are divided into T sections of T modules each; the
 * address space is divided into blocks of 2^y locations and each
 * block maps onto one section (bits a_{y+t-1..y} select the section,
 * the Eq. 1 core selects the module inside the section).  Figure 7 of
 * the paper shows the t = 2, s = 3, y = 7 instance.
 *
 * The implementation generalizes slightly: the number of section
 * bits u (so m = t + u) is configurable with the paper's m = 2t as
 * the u = t default, matching DESIGN.md's "unmatched generality"
 * note.
 */

#ifndef CFVA_MAPPING_XOR_SECTIONED_H
#define CFVA_MAPPING_XOR_SECTIONED_H

#include "mapping/mapping.h"

namespace cfva {

/** Eq. 2 mapping: sectioned XOR transformation for m = t + u. */
class XorSectionedMapping final : public ModuleMapping
{
  public:
    /**
     * Creates the Eq. 2 mapping with m = t + u module bits.
     *
     * @param t  log2 of the memory/processor cycle ratio
     * @param s  XOR distance of the Eq. 1 core; s >= t
     * @param y  position of the section field; y >= s + t
     * @param u  number of section bits; defaults to t (m = 2t)
     */
    XorSectionedMapping(unsigned t, unsigned s, unsigned y, unsigned u);

    /** Paper's special case m = 2t (u = t). */
    XorSectionedMapping(unsigned t, unsigned s, unsigned y)
        : XorSectionedMapping(t, s, y, t)
    {}

    ModuleId
    moduleOf(Addr a) const override
    {
        return (sectionOf(a) << t_) | supermoduleOf(a);
    }

    Addr displacementOf(Addr a) const override;
    Addr addressOf(ModuleId module, Addr displacement) const override;
    unsigned moduleBits() const override { return t_ + u_; }
    std::string name() const override;

    /** Eq. 2 as GF(2) rows: the Eq. 1 core plus section bits. */
    bool gf2Rows(std::vector<std::uint64_t> &rows) const override;

    unsigned t() const { return t_; }
    unsigned xorDistance() const { return s_; }
    unsigned sectionPos() const { return y_; }
    unsigned sectionBits() const { return u_; }

    /** Number of sections (2^u) and modules per section (2^t). */
    ModuleId sections() const { return ModuleId{1} << u_; }
    ModuleId modulesPerSection() const { return ModuleId{1} << t_; }

    /** Section number of @p a: bits b_{m-1..t} = a_{y+u-1..y}. */
    ModuleId
    sectionOf(Addr a) const
    {
        return static_cast<ModuleId>(bitField(a, y_, u_));
    }

    /**
     * Supermodule number of @p a (paper Sec. 4.2): the supermodule i
     * consists of the i-th module of each section, i.e. bits
     * b_{t-1..0} of the module number.
     */
    ModuleId
    supermoduleOf(Addr a) const
    {
        return static_cast<ModuleId>(bitField(a, 0, t_)
                                     ^ bitField(a, s_, t_));
    }

    /**
     * The period P_x of the canonical temporal distribution for
     * family @p x: P_x = 2^{y+t-x}, clamped to 1 for x > y+t
     * (paper Sec. 4.1).
     */
    std::uint64_t period(unsigned x) const;

  private:
    unsigned t_;
    unsigned s_;
    unsigned y_;
    unsigned u_;
};

} // namespace cfva

#endif // CFVA_MAPPING_XOR_SECTIONED_H
