#include "sim/workload.h"

#include <sstream>

#include "common/logging.h"
#include "mapping/dynamic.h"

namespace cfva::sim {

const char *
to_string(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Single:
        return "single";
      case WorkloadKind::Chain:
        return "chain";
      case WorkloadKind::Retune:
        return "retune";
      case WorkloadKind::Stencil:
        return "stencil";
    }
    return "?";
}

std::string
Workload::label() const
{
    std::ostringstream os;
    os << to_string(kind);
    switch (kind) {
      case WorkloadKind::Single:
        break;
      case WorkloadKind::Chain:
      case WorkloadKind::Stencil:
        os << ":e" << execLatency;
        break;
      case WorkloadKind::Retune:
        os << ":p" << retunePeriod;
        break;
    }
    return os.str();
}

void
Workload::validate() const
{
    cfva_assert(execLatency >= 1,
                "workload execute latency must be >= 1");
    cfva_assert(retunePeriod >= 1,
                "workload retune period must be >= 1");
}

Cycle
retuneRelayoutCycles(unsigned m, unsigned pOld, unsigned pNew,
                     std::uint64_t footprint, Cycle serviceCycles)
{
    if (pOld == pNew || footprint == 0)
        return 0;
    const double fraction =
        DynamicFieldMapping::displacedBy(m, pOld, pNew, footprint);
    // Displaced words are read and rewritten through 2^m modules of
    // serviceCycles-cycle access time: ceil(2 * T * D / M).
    const auto displaced = static_cast<std::uint64_t>(
        fraction * static_cast<double>(footprint) + 0.5);
    const std::uint64_t modules = std::uint64_t{1} << m;
    return (2 * serviceCycles * displaced + modules - 1) / modules;
}

const VectorAccessUnit &
WorkloadUnits::retuned(const VectorUnitConfig &cfg,
                       std::size_t mappingIndex, unsigned tune)
{
    const UnitKey key{mappingIndex, tune};
    for (auto &entry : units_) {
        if (entry.first == key)
            return *entry.second;
    }
    VectorUnitConfig variant = cfg;
    variant.dynamicTune = tune;
    units_.emplace_back(key,
                        std::make_unique<VectorAccessUnit>(variant));
    return *units_.back().second;
}

Cycle
WorkloadUnits::relayoutCycles(unsigned m, unsigned pOld,
                              unsigned pNew, std::uint64_t footprint,
                              Cycle serviceCycles)
{
    const CostKey key{m, pOld, pNew, footprint, serviceCycles};
    for (const auto &entry : costs_) {
        if (entry.first == key)
            return entry.second;
    }
    const Cycle cycles =
        retuneRelayoutCycles(m, pOld, pNew, footprint, serviceCycles);
    costs_.emplace_back(key, cycles);
    return cycles;
}

} // namespace cfva::sim
