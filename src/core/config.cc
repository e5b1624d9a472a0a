#include "core/config.h"

#include <sstream>

#include "common/logging.h"
#include "mapping/interleave.h"

namespace cfva {

const char *
to_string(MemoryKind kind)
{
    switch (kind) {
      case MemoryKind::Matched:
        return "matched";
      case MemoryKind::SimpleUnmatched:
        return "simple-unmatched";
      case MemoryKind::Sectioned:
        return "sectioned";
      case MemoryKind::DynamicTuned:
        return "dynamic";
      case MemoryKind::PseudoRandom:
        return "prand";
    }
    return "?";
}

unsigned
VectorUnitConfig::m() const
{
    if (mOverride)
        return *mOverride;
    switch (kind) {
      case MemoryKind::Matched:
      case MemoryKind::DynamicTuned:
      case MemoryKind::PseudoRandom:
        return t;
      case MemoryKind::Sectioned:
        return 2 * t;
      case MemoryKind::SimpleUnmatched:
        cfva_fatal("SimpleUnmatched requires an explicit module "
                   "count (mOverride)");
    }
    return t;
}

unsigned
VectorUnitConfig::s() const
{
    if (sOverride)
        return *sOverride;
    cfva_assert(lambda >= 2 * t,
                "default s = lambda-t needs lambda >= 2t (lambda=",
                lambda, ", t=", t, ")");
    return lambda - t;
}

unsigned
VectorUnitConfig::y() const
{
    if (yOverride)
        return *yOverride;
    return 2 * (lambda - t) + 1;
}

MemConfig
VectorUnitConfig::memConfig() const
{
    MemConfig mc;
    mc.m = m();
    mc.t = t;
    mc.inputBuffers = inputBuffers;
    mc.outputBuffers = outputBuffers;
    return mc;
}

void
VectorUnitConfig::validate() const
{
    if (t < 1 || t > 8)
        cfva_fatal("t out of supported range [1,8]: ", t);
    if (lambda < t)
        cfva_fatal("register length 2^", lambda,
                   " shorter than service time 2^", t);
    if (lambda > 24)
        cfva_fatal("lambda out of supported range: ", lambda);
    if (inputBuffers < 1 || outputBuffers < 1)
        cfva_fatal("buffers must be >= 1");

    const unsigned mm = m();
    if (mm < t)
        cfva_fatal("fewer modules (2^", mm, ") than the service "
                   "ratio (2^", t, ") cannot sustain one access "
                   "per cycle");
    if (lambda < mm)
        cfva_fatal("the paper requires lambda >= m (lambda=", lambda,
                   ", m=", mm, ")");

    // The s/y transform parameters only exist for the paper's XOR
    // organizations; the prior-art kinds have their own knobs.
    auto checkS = [&]() {
        const unsigned ss = s();
        if (ss < t)
            cfva_fatal("Eq. 1/2 require s >= t (s=", ss, ", t=", t,
                       ")");
        if (ss > lambda - t)
            cfva_warn("s=", ss, " > lambda-t=", lambda - t,
                      ": family x=0 (odd strides) falls outside the "
                      "conflict-free window");
        return ss;
    };

    switch (kind) {
      case MemoryKind::Matched:
        if (mm != t)
            cfva_fatal("matched memory requires m == t, got m=", mm);
        checkS();
        break;
      case MemoryKind::SimpleUnmatched: {
        // Eq. 1 with t replaced by m: XorMatchedMapping(m, s)'s
        // bounds.
        if (mm > 12)
            cfva_fatal("simple-unmatched memory supports m <= 12, "
                       "got m=", mm);
        const unsigned ss = checkS();
        if (ss < mm)
            cfva_fatal("simple-unmatched memory (Eq. 1 with t "
                       "replaced by m) requires s >= m (s=", ss,
                       ", m=", mm, "; s defaults to lambda-t)");
        if (ss + mm > 56)
            cfva_fatal("simple-unmatched memory requires s+m <= 56 "
                       "(s=", ss, ", m=", mm, ")");
        break;
      }
      case MemoryKind::Sectioned: {
        if (mm != 2 * t)
            cfva_fatal("sectioned memory (Sec. 4.1) is defined for "
                       "m = 2t, got m=", mm);
        const unsigned ss = checkS();
        const unsigned yy = y();
        if (yy < ss + t)
            cfva_fatal("Eq. 2 requires y >= s+t (y=", yy, ", s=", ss,
                       ", t=", t, ")");
        break;
      }
      case MemoryKind::DynamicTuned:
        if (mm > FieldInterleave::kMaxFieldEnd
            || dynamicTune > FieldInterleave::kMaxFieldEnd - mm) {
            cfva_fatal("dynamic field position p=", dynamicTune,
                       " with m=", mm, " ends the module field past "
                       "bit ", FieldInterleave::kMaxFieldEnd,
                       " (p + m <= ", FieldInterleave::kMaxFieldEnd,
                       ")");
        }
        break;
      case MemoryKind::PseudoRandom:
        break;
    }
}

std::string
VectorUnitConfig::describe() const
{
    std::ostringstream os;
    os << to_string(kind) << " M=" << (1u << m()) << " T="
       << (1u << t) << " L=" << registerLength();
    switch (kind) {
      case MemoryKind::Matched:
      case MemoryKind::SimpleUnmatched:
        os << " s=" << s();
        break;
      case MemoryKind::Sectioned:
        os << " s=" << s() << " y=" << y();
        break;
      case MemoryKind::DynamicTuned:
        os << " p=" << dynamicTune;
        break;
      case MemoryKind::PseudoRandom:
        os << " seed=" << prandSeed;
        break;
    }
    os << " q=" << inputBuffers << " q'=" << outputBuffers;
    return os.str();
}

VectorUnitConfig
paperMatchedExample()
{
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::Matched;
    cfg.t = 3;
    cfg.lambda = 7; // L = 128
    // s defaults to lambda - t = 4, the Sec. 3.3 example choice.
    cfg.validate();
    return cfg;
}

VectorUnitConfig
paperSectionedExample()
{
    VectorUnitConfig cfg;
    cfg.kind = MemoryKind::Sectioned;
    cfg.t = 3;
    cfg.lambda = 7; // L = 128, M = 64
    // s defaults to 4 and y to 9, the Sec. 4.3 example choices.
    cfg.validate();
    return cfg;
}

} // namespace cfva
