#include <algorithm>
#include <tuple>

#include "perfbench.h"

namespace perfbench {

cfva::sim::SweepOptions
oracleOptions()
{
    // The pure stepped model: every access simulated cycle by cycle,
    // no steady-state collapse or memo replay, every job executed.
    // This is the one place the benchmark names those switches.
    cfva::sim::SweepOptions o;
    o.threads = 0;
    o.tier = cfva::TierPolicy::SimulateAlways;
    o.collapse = cfva::CollapseMode::Off;
    o.dedup = cfva::sim::DedupMode::Off;
    return o;
}

std::vector<Outcomes>
runOracle(const Workload &w)
{
    const cfva::sim::SweepEngine engine(oracleOptions());
    std::vector<Outcomes> out;
    for (const ScenarioGrid &grid : w.grids)
        out.push_back(engine.run(grid).outcomes);
    return out;
}

namespace {

/** The compared fields, in one place for the check and the digest. */
auto
modelledFields(const ScenarioOutcome &o)
{
    return std::tuple{
        // identity: which job the row claims to be
        o.index, o.mappingIndex, o.portMixIndex, o.workloadIndex,
        o.stride, o.family, o.length, o.a1, o.ports,
        // what the model predicts
        o.latency, o.minLatency, o.stallCycles, o.conflictFree,
        o.inWindow, o.accesses, o.decoupledCycles, o.chainedCycles,
        o.chainable, o.retunes, o.retuneCycles};
}

} // namespace

bool
sameModelled(const ScenarioOutcome &a, const ScenarioOutcome &b)
{
    return modelledFields(a) == modelledFields(b);
}

std::uint64_t
countMismatches(const Outcomes &got, const Outcomes &ref)
{
    const std::size_t common = std::min(got.size(), ref.size());
    std::uint64_t bad = std::max(got.size(), ref.size()) - common;
    for (std::size_t i = 0; i < common; ++i)
        bad += sameModelled(got[i], ref[i]) ? 0 : 1;
    return bad;
}

std::uint64_t
modelledDigest(const std::vector<Outcomes> &grids)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const Outcomes &grid : grids) {
        mix(grid.size());
        for (const ScenarioOutcome &o : grid) {
            std::apply(
                [&](const auto &...f) {
                    (mix(static_cast<std::uint64_t>(f)), ...);
                },
                modelledFields(o));
        }
    }
    return h;
}

} // namespace perfbench
