#include "mapping/xor_sectioned.h"

#include <sstream>

#include "common/logging.h"

namespace cfva {

XorSectionedMapping::XorSectionedMapping(unsigned t, unsigned s,
                                         unsigned y, unsigned u)
    : t_(t), s_(s), y_(y), u_(u)
{
    cfva_assert(t >= 1 && t <= 10, "t out of range: ", t);
    cfva_assert(u >= 1 && u <= 10, "u out of range: ", u);
    cfva_assert(s >= t, "Eq. 2 requires s >= t (s=", s, ", t=", t, ")");
    cfva_assert(y >= s + t,
                "Eq. 2 requires y >= s+t (y=", y, ", s=", s,
                ", t=", t, ")");
    cfva_assert(y + u <= 56, "y too large: ", y);
}

Addr
XorSectionedMapping::displacementOf(Addr a) const
{
    // As in Eq. 1, d = a >> t keeps the pair (b, d) invertible: the
    // fields a_{s+t-1..s} and a_{y+u-1..y} both live inside d since
    // s >= t and y >= t.
    return a >> t_;
}

Addr
XorSectionedMapping::addressOf(ModuleId module, Addr displacement) const
{
    cfva_assert(module < modules(), "module ", module, " out of range");
    const Addr b_low = bitField(module, 0, t_);
    const Addr b_high = bitField(module, t_, u_);
    cfva_assert(bitField(displacement, y_ - t_, u_) == b_high,
                "displacement ", displacement,
                " inconsistent with section ", b_high);
    const Addr mid = bitField(displacement, s_ - t_, t_);
    const Addr low = b_low ^ mid;
    return (displacement << t_) | low;
}

std::string
XorSectionedMapping::name() const
{
    std::ostringstream os;
    os << "xor-sectioned(t=" << t_ << ",s=" << s_ << ",y=" << y_
       << ",u=" << u_ << ")";
    return os.str();
}

std::uint64_t
XorSectionedMapping::period(unsigned x) const
{
    if (x >= y_ + t_)
        return 1;
    return std::uint64_t{1} << (y_ + t_ - x);
}

} // namespace cfva
