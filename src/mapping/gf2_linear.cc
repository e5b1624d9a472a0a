#include "mapping/gf2_linear.h"

#include <sstream>

#include "common/logging.h"

namespace cfva {

GF2LinearMapping::GF2LinearMapping(std::vector<std::uint64_t> rows)
    : rows_(std::move(rows))
{
    cfva_assert(!rows_.empty() && rows_.size() <= 16,
                "matrix must have 1..16 rows, got ", rows_.size());
    computeLowInverse();
}

void
GF2LinearMapping::computeLowInverse()
{
    // Gauss-Jordan over GF(2) on the m x m submatrix formed by the
    // low m address bits, augmented with the identity.  A singular
    // submatrix means (module, A >> m) is not a bijection; the
    // mapping is still usable for conflict analysis, so record the
    // fact instead of failing (see bijective()).
    const unsigned m = static_cast<unsigned>(rows_.size());
    std::vector<std::uint64_t> mat(m), inv(m);
    for (unsigned i = 0; i < m; ++i) {
        mat[i] = rows_[i] & lowMask(m);
        inv[i] = std::uint64_t{1} << i;
    }

    for (unsigned col = 0; col < m; ++col) {
        unsigned pivot = col;
        while (pivot < m && !bit(mat[pivot], col))
            ++pivot;
        if (pivot == m) {
            lowInverse_.clear();
            return;
        }
        std::swap(mat[col], mat[pivot]);
        std::swap(inv[col], inv[pivot]);
        for (unsigned r = 0; r < m; ++r) {
            if (r != col && bit(mat[r], col)) {
                mat[r] ^= mat[col];
                inv[r] ^= inv[col];
            }
        }
    }

    // inv now holds rows of H_low^{-1} in reduced form: row j of the
    // inverse, as a mask over module-bit space.
    lowInverse_ = std::move(inv);
}

ModuleId
GF2LinearMapping::moduleOf(Addr a) const
{
    ModuleId b = 0;
    for (unsigned i = 0; i < rows_.size(); ++i)
        b |= static_cast<ModuleId>(parity(a & rows_[i])) << i;
    return b;
}

Addr
GF2LinearMapping::displacementOf(Addr a) const
{
    return a >> moduleBits();
}

Addr
GF2LinearMapping::addressOf(ModuleId module, Addr displacement) const
{
    cfva_assert(module < modules(), "module ", module, " out of range");
    cfva_assert(bijective(),
                "addressOf on a non-bijective GF(2) mapping");
    const unsigned m = moduleBits();
    const Addr high = displacement << m;

    // Contribution of the high address bits to the module number.
    ModuleId c = 0;
    for (unsigned i = 0; i < m; ++i)
        c |= static_cast<ModuleId>(parity(high & rows_[i])) << i;

    // Solve H_low * a_low = module XOR c.
    const ModuleId target = module ^ c;
    Addr low = 0;
    for (unsigned j = 0; j < m; ++j)
        low |= Addr{parity(target & lowInverse_[j])} << j;
    return high | low;
}

unsigned
GF2LinearMapping::moduleBits() const
{
    return static_cast<unsigned>(rows_.size());
}

std::string
GF2LinearMapping::name() const
{
    std::ostringstream os;
    os << "gf2-linear(m=" << rows_.size() << ")";
    return os.str();
}

std::uint64_t
GF2LinearMapping::row(unsigned i) const
{
    cfva_assert(i < rows_.size(), "row ", i, " out of range");
    return rows_[i];
}

GF2LinearMapping
GF2LinearMapping::matched(unsigned t, unsigned s)
{
    cfva_assert(s >= t, "Eq. 1 requires s >= t");
    std::vector<std::uint64_t> rows(t);
    for (unsigned i = 0; i < t; ++i)
        rows[i] = (std::uint64_t{1} << i) | (std::uint64_t{1} << (s + i));
    return GF2LinearMapping(std::move(rows));
}

GF2LinearMapping
GF2LinearMapping::sectioned(unsigned t, unsigned s, unsigned y,
                            unsigned u)
{
    cfva_assert(s >= t && y >= s + t, "Eq. 2 requires s>=t, y>=s+t");
    std::vector<std::uint64_t> rows(t + u);
    for (unsigned i = 0; i < t; ++i)
        rows[i] = (std::uint64_t{1} << i) | (std::uint64_t{1} << (s + i));
    for (unsigned i = 0; i < u; ++i)
        rows[t + i] = std::uint64_t{1} << (y + i);
    return GF2LinearMapping(std::move(rows));
}

GF2LinearMapping
GF2LinearMapping::interleave(unsigned m)
{
    std::vector<std::uint64_t> rows(m);
    for (unsigned i = 0; i < m; ++i)
        rows[i] = std::uint64_t{1} << i;
    return GF2LinearMapping(std::move(rows));
}

} // namespace cfva
