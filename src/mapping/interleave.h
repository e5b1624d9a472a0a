/**
 * @file
 * Conventional low-order interleaving.
 *
 * The classic scheme the paper's introduction starts from: module =
 * A mod M, displacement = A div M.  Conflict free for odd strides
 * only (family x = 0) on a matched memory.  Serves as the baseline
 * every other mapping is compared against, and as the degenerate
 * s = 0 case of the XOR transformation family.
 */

#ifndef CFVA_MAPPING_INTERLEAVE_H
#define CFVA_MAPPING_INTERLEAVE_H

#include "mapping/mapping.h"

namespace cfva {

/** Low-order interleaved mapping over 2^m modules. */
class LowOrderInterleave : public ModuleMapping
{
  public:
    /** Creates an interleave over 2^@p m modules. */
    explicit LowOrderInterleave(unsigned m);

    ModuleId moduleOf(Addr a) const override;
    Addr displacementOf(Addr a) const override;
    Addr addressOf(ModuleId module, Addr displacement) const override;
    unsigned moduleBits() const override { return m_; }
    std::string name() const override;

  private:
    unsigned m_;
};

/**
 * Interleaving on an internal address field: module = bits
 * a_{p+m-1..p}.  The paper's conclusions note that the out-of-order
 * results carry over to interleaving when "the bits that determine
 * the module number" are selected suitably; choosing p = s gives a
 * scheme with the same period structure as Eq. 1.
 */
class FieldInterleave : public ModuleMapping
{
  public:
    /** Largest end p + m of the module field: the one bound on the
     *  field position, shared by every layer that places it. */
    static constexpr unsigned kMaxFieldEnd = 56;

    /**
     * Creates an interleave using the m-bit field starting at bit
     * @p p as the module number; p + m must be at most
     * kMaxFieldEnd.
     */
    FieldInterleave(unsigned m, unsigned p);

    ModuleId moduleOf(Addr a) const override;
    Addr displacementOf(Addr a) const override;
    Addr addressOf(ModuleId module, Addr displacement) const override;
    unsigned moduleBits() const override { return m_; }
    std::string name() const override;

    /** The field position p. */
    unsigned fieldPos() const { return p_; }

  private:
    unsigned m_;
    unsigned p_;
};

} // namespace cfva

#endif // CFVA_MAPPING_INTERLEAVE_H
