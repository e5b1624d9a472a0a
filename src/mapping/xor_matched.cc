#include "mapping/xor_matched.h"

#include <sstream>

#include "common/logging.h"

namespace cfva {

XorMatchedMapping::XorMatchedMapping(unsigned t, unsigned s)
    : t_(t), s_(s)
{
    cfva_assert(t >= 1 && t <= 12, "t out of range: ", t);
    cfva_assert(s >= t, "Eq. 1 requires s >= t (s=", s, ", t=", t, ")");
    cfva_assert(s + t <= 56, "s too large: ", s);
}

Addr
XorMatchedMapping::displacementOf(Addr a) const
{
    // Dropping the low t bits keeps the map invertible: b together
    // with d = a >> t recovers a_{t-1..0} = b XOR a_{s+t-1..s}, and
    // the field a_{s+t-1..s} lives inside d because s >= t.
    return a >> t_;
}

Addr
XorMatchedMapping::addressOf(ModuleId module, Addr displacement) const
{
    cfva_assert(module < modules(), "module ", module, " out of range");
    const Addr mid = bitField(displacement, s_ - t_, t_);
    const Addr low = Addr{module} ^ mid;
    return (displacement << t_) | low;
}

bool
XorMatchedMapping::gf2Rows(std::vector<std::uint64_t> &rows) const
{
    rows.resize(t_);
    for (unsigned i = 0; i < t_; ++i)
        rows[i] = (std::uint64_t{1} << i) | (std::uint64_t{1} << (s_ + i));
    return true;
}

std::string
XorMatchedMapping::name() const
{
    std::ostringstream os;
    os << "xor-matched(t=" << t_ << ",s=" << s_ << ")";
    return os.str();
}

std::uint64_t
XorMatchedMapping::period(unsigned x) const
{
    if (x >= s_ + t_)
        return 1;
    return std::uint64_t{1} << (s_ + t_ - x);
}

} // namespace cfva
