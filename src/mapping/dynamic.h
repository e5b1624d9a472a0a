/**
 * @file
 * Dynamic storage scheme in the style of Harper & Linebarger [11].
 *
 * Prior art the paper positions itself against: instead of one
 * static transformation plus out-of-order issue, the *mapping
 * itself* is retuned per stride — here, field interleaving with the
 * module field placed at bit p = x, which makes the family x
 * conflict free under plain in-order access (any length, any
 * start).
 *
 * The catch, and the reason the paper's static scheme wins for
 * general workloads: retuning moves every address to a different
 * (module, displacement) location, so data written under one tuning
 * must be physically relaid before it can be read under another —
 * fine for one vector with one stride, untenable when the same
 * array is walked by rows and by columns.  bench_prior_art
 * quantifies exactly that.
 */

#ifndef CFVA_MAPPING_DYNAMIC_H
#define CFVA_MAPPING_DYNAMIC_H

#include "common/stride.h"
#include "mapping/interleave.h"

namespace cfva {

/** Field-interleaving mapping whose field position is retunable. */
class DynamicFieldMapping : public ModuleMapping
{
  public:
    /**
     * @param m  log2 of module count
     * @param p  initial field position
     */
    DynamicFieldMapping(unsigned m, unsigned p);

    /** The tuning that makes family x conflict free: p = x. */
    static unsigned tuneFor(const Stride &s) { return s.family(); }

    /**
     * Moves the module field to bit @p p.  Data stored under the
     * previous tuning is NOT relocated; displacedBy() reports how
     * much of the address space changes location.
     */
    void retune(unsigned p);

    /** Retunes for the family of @p s; returns the new p. */
    unsigned
    retuneFor(const Stride &s)
    {
        retune(tuneFor(s));
        return p_;
    }

    /** Current field position. */
    unsigned tuned() const { return p_; }

    /** Number of retune() calls so far (relayout cost proxy). */
    unsigned retunes() const { return retunes_; }

    /**
     * Fraction of the first @p probe addresses whose
     * (module, displacement) location differs between tunings
     * @p p_a and @p p_b — the fraction of data that must be copied
     * when switching.
     */
    static double displacedBy(unsigned m, unsigned p_a, unsigned p_b,
                              Addr probe);

    ModuleId moduleOf(Addr a) const override;
    Addr displacementOf(Addr a) const override;
    Addr addressOf(ModuleId module, Addr displacement) const override;
    unsigned moduleBits() const override { return m_; }
    std::string name() const override;

  private:
    unsigned m_;
    unsigned p_;
    unsigned retunes_ = 0;
    FieldInterleave current_;
};

} // namespace cfva

#endif // CFVA_MAPPING_DYNAMIC_H
