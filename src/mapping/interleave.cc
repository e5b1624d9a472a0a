#include "mapping/interleave.h"

#include <sstream>

#include "common/logging.h"

namespace cfva {

LowOrderInterleave::LowOrderInterleave(unsigned m) : m_(m)
{
    cfva_assert(m <= 16, "module-bit count unreasonably large: ", m);
}

ModuleId
LowOrderInterleave::moduleOf(Addr a) const
{
    return static_cast<ModuleId>(a & lowMask(m_));
}

Addr
LowOrderInterleave::displacementOf(Addr a) const
{
    return a >> m_;
}

Addr
LowOrderInterleave::addressOf(ModuleId module, Addr displacement) const
{
    cfva_assert(module < modules(), "module ", module, " out of range");
    return (displacement << m_) | module;
}

std::string
LowOrderInterleave::name() const
{
    std::ostringstream os;
    os << "interleave(m=" << m_ << ")";
    return os.str();
}

FieldInterleave::FieldInterleave(unsigned m, unsigned p) : m_(m), p_(p)
{
    cfva_assert(m <= 16, "module-bit count unreasonably large: ", m);
    cfva_assert(p <= kMaxFieldEnd - m,
                "field position too high: p=", p, ", m=", m);
}

ModuleId
FieldInterleave::moduleOf(Addr a) const
{
    return static_cast<ModuleId>(bitField(a, p_, m_));
}

Addr
FieldInterleave::displacementOf(Addr a) const
{
    // Concatenate the bits above and below the module field.
    const Addr low = a & lowMask(p_);
    const Addr high = a >> (p_ + m_);
    return (high << p_) | low;
}

Addr
FieldInterleave::addressOf(ModuleId module, Addr displacement) const
{
    cfva_assert(module < modules(), "module ", module, " out of range");
    const Addr low = displacement & lowMask(p_);
    const Addr high = displacement >> p_;
    return (high << (p_ + m_)) | (Addr{module} << p_) | low;
}

std::string
FieldInterleave::name() const
{
    std::ostringstream os;
    os << "field-interleave(m=" << m_ << ",p=" << p_ << ")";
    return os.str();
}

} // namespace cfva
