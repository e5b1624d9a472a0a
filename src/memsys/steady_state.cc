#include "memsys/steady_state.h"

#include "common/logging.h"

namespace cfva {

void
materializeEmits(const std::vector<Emit> &emits,
                 const std::vector<Request> &stream,
                 const ModuleId *mods, unsigned port,
                 AccessResult &result)
{
    for (const Emit &e : emits) {
        Delivery d;
        d.addr = stream[e.pos].addr;
        d.element = stream[e.pos].element;
        d.module = mods[e.pos];
        d.port = port;
        d.issued = e.issued;
        d.arrived = e.arrived;
        d.serviceStart = e.serviceStart;
        d.ready = e.ready;
        d.delivered = e.delivered;
        result.deliveries.push_back(d);
    }
}

void
summarizePort(std::size_t length, Cycle T, Cycle firstIssue,
              Cycle lastDelivery, std::uint64_t stalls,
              AccessResult &out)
{
    out.firstIssue = firstIssue;
    out.lastDelivery = lastDelivery;
    out.stallCycles = stalls;
    out.latency = length == 0 ? 0 : lastDelivery - firstIssue + 1;
    const Cycle minimum = static_cast<Cycle>(length) + T + 1;
    out.conflictFree =
        length == 0 || (stalls == 0 && out.latency == minimum);
}

bool
OutcomeMemo::lookup(std::size_t length, const ModuleId *mods,
                    ModuleId moduleCount)
{
    found_ = ~std::size_t{0};
    if (length == 0 || length > kMaxLen)
        return false;

    // Rank-canonicalize: the distinct modules used, sorted
    // ascending, renamed 0..k-1.  An order-preserving relabeling
    // keeps every engine comparison (return-bus tie-breaks compare
    // module ids) intact, so equal rank sequences have bit-identical
    // position-form outcomes.  First-seen-order naming would NOT be
    // sound: it can map an ascending pair to a descending one and
    // flip a tie-break.
    rankOf_.assign(moduleCount, kUnranked);
    for (std::size_t i = 0; i < length; ++i)
        rankOf_[mods[i]] = 0;
    ModuleId rank = 0;
    for (ModuleId m = 0; m < moduleCount; ++m)
        if (rankOf_[m] != kUnranked)
            rankOf_[m] = rank++;
    rankSeq_.resize(length);
    for (std::size_t i = 0; i < length; ++i)
        rankSeq_[i] = rankOf_[mods[i]];

    std::uint64_t h = 14695981039346656037ull;
    for (ModuleId r : rankSeq_) {
        h ^= r;
        h *= 1099511628211ull;
    }
    hash_ = h;

    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        if (e.hash == hash_ && e.rankSeq == rankSeq_) {
            found_ = i;
            return true;
        }
    }
    return false;
}

void
OutcomeMemo::store(std::size_t length, const AccessResult &result)
{
    if (length == 0 || length > kMaxLen)
        return;
    cfva_assert(rankSeq_.size() == length,
                "store() without a matching lookup()");
    Entry e;
    e.hash = hash_;
    e.rankSeq = rankSeq_;
    e.result = result;
    entries_.push_back(std::move(e));
    if (entries_.size() > kMaxEntries)
        entries_.pop_front();
}

const AccessResult &
OutcomeMemo::cached() const
{
    cfva_assert(found_ != ~std::size_t{0},
                "cached() without a lookup() hit");
    return entries_[found_].result;
}

} // namespace cfva
