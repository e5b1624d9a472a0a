/**
 * @file
 * Generic GF(2) boolean linear transformation.
 *
 * The literature the paper builds on ([3] Frailong et al., [9]
 * Norton & Melton, [10] Rau et al.) studies module mappings of the
 * form b = H * a over GF(2), where H is an m x n boolean matrix.
 * Eq. 1 and Eq. 2 are instances; this class implements the general
 * form so the test suite can assert that the paper's mappings equal
 * their matrix formulations, and so that benches can explore other
 * published matrices (e.g. pseudo-random interleaving rows).
 */

#ifndef CFVA_MAPPING_GF2_LINEAR_H
#define CFVA_MAPPING_GF2_LINEAR_H

#include <vector>

#include "mapping/mapping.h"

namespace cfva {

/**
 * Module mapping b_i = parity(A AND rowMask_i): each output bit is
 * the GF(2) inner product of the address with one matrix row.
 *
 * The displacement component is d = A >> m, which is a bijection
 * together with b iff the m x m submatrix of H over the low m
 * address bits is invertible over GF(2).  Eq. 1 satisfies this;
 * Eq. 2 does not (its section rows read bits above m, which is why
 * XorSectionedMapping defines its own d = A >> t displacement).
 * bijective() reports which case holds, and addressOf() panics for
 * non-bijective matrices.
 */
class GF2LinearMapping : public ModuleMapping
{
  public:
    /**
     * Creates a linear mapping from row masks.
     *
     * @param rows  rows[i] is the 64-bit mask of address bits that
     *              XOR into module bit i; rows.size() = m
     */
    explicit GF2LinearMapping(std::vector<std::uint64_t> rows);

    ModuleId moduleOf(Addr a) const override;
    Addr displacementOf(Addr a) const override;
    Addr addressOf(ModuleId module, Addr displacement) const override;
    unsigned moduleBits() const override;
    std::string name() const override;

    /** Row mask for module bit @p i. */
    std::uint64_t row(unsigned i) const;

    /** True iff (moduleOf, displacementOf) is invertible. */
    bool bijective() const { return !lowInverse_.empty(); }

    /** Builds the matrix form of Eq. 1 (XorMatchedMapping). */
    static GF2LinearMapping matched(unsigned t, unsigned s);

    /** Builds the matrix form of Eq. 2 (XorSectionedMapping). */
    static GF2LinearMapping sectioned(unsigned t, unsigned s,
                                      unsigned y, unsigned u);

    /** Builds plain low-order interleaving as a matrix. */
    static GF2LinearMapping interleave(unsigned m);

  private:
    std::vector<std::uint64_t> rows_;

    /**
     * Inverse of the low m x m submatrix, used by addressOf: for
     * each module bit pattern, the low address bits that produce it
     * when the high address bits are zero.
     */
    std::vector<std::uint64_t> lowInverse_;

    void computeLowInverse();
};

} // namespace cfva

#endif // CFVA_MAPPING_GF2_LINEAR_H
