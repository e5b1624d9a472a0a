#include <cstdlib>
#include <iostream>

#include "perfbench.h"

namespace perfbench {

using cfva::MemoryKind;
using cfva::VectorUnitConfig;
using cfva::sim::WorkloadKind;

namespace {

/**
 * The mapping axis cfva_sweep builds from --kinds K --t 2,3
 * --lambda 7 [--m ms], in the same order: kind, then t, then m.
 */
std::vector<VectorUnitConfig>
mappings(std::initializer_list<MemoryKind> kinds,
         std::initializer_list<unsigned> ms = {})
{
    std::vector<VectorUnitConfig> out;
    for (MemoryKind kind : kinds) {
        for (unsigned t : {2u, 3u}) {
            VectorUnitConfig cfg;
            cfg.kind = kind;
            cfg.t = t;
            cfg.lambda = 7;
            if (kind == MemoryKind::SimpleUnmatched) {
                for (unsigned m : ms) {
                    cfg.mOverride = m;
                    out.push_back(cfg);
                }
            } else {
                out.push_back(cfg);
            }
        }
    }
    return out;
}

/** cfva_sweep's default stride axis: --families 0..7 --sigmas
 *  1,3,...,15. */
ScenarioGrid
baseGrid(std::vector<VectorUnitConfig> maps, std::uint64_t seed)
{
    ScenarioGrid g;
    g.mappings = std::move(maps);
    g.addFamilies(0, 7, {1, 3, 5, 7, 9, 11, 13, 15});
    g.seed = seed;
    return g;
}

/** Every name, its grids, and its pinned job count. */
struct Entry
{
    const char *name;
    std::size_t jobs;
    std::uint64_t digest; //!< referenceDigest at kDefaultSeed
    std::vector<ScenarioGrid> (*grids)(std::uint64_t seed);
};

// Why each grid exists is in perfbench/README.md; the job counts
// are pinned so a change to a grid cannot pass unnoticed.
const Entry kEntries[] = {
    {"paper", 16384, 0xc142dbf7c5352a2bull,
     [](std::uint64_t seed) {
         // --kinds matched,sectioned --lengths 0 --random-starts 63:
         // every access planner-certified.
         ScenarioGrid g = baseGrid(
             mappings({MemoryKind::Matched, MemoryKind::Sectioned}),
             seed);
         g.randomStarts = 63;
         return std::vector<ScenarioGrid>{g};
     }},
    {"broad", 3840, 0x428f8e905c1d5c59ull,
     [](std::uint64_t seed) {
         // --kinds prand,matched,sectioned,simple --m 3,4
         // --lengths 0,64,200 --workloads single,stencil, one start
         // per combination drawn from the seed: about half the
         // accesses conflict.
         ScenarioGrid g = baseGrid(
             mappings({MemoryKind::PseudoRandom, MemoryKind::Matched,
                       MemoryKind::Sectioned,
                       MemoryKind::SimpleUnmatched},
                      {3, 4}),
             seed);
         g.lengths = {0, 64, 200};
         g.workloads = {{WorkloadKind::Single},
                        {WorkloadKind::Stencil}};
         g.starts = {};
         g.randomStarts = 1;
         return std::vector<ScenarioGrid>{g};
     }},
    {"ports", 3072, 0xede1f641e9868d4bull,
     [](std::uint64_t seed) {
         // --ports 2,3 --lengths 0,64,200, one start per combination
         // drawn from the seed, once at the default stagger (ports
         // share modules) and once at --port-stagger 32 (ports split
         // into disjoint modules).
         ScenarioGrid g = baseGrid(
             mappings({MemoryKind::Matched, MemoryKind::Sectioned}),
             seed);
         g.ports = {2, 3};
         g.lengths = {0, 64, 200};
         g.starts = {};
         g.randomStarts = 1;
         ScenarioGrid staggered = g;
         staggered.portStagger = 32;
         return std::vector<ScenarioGrid>{g, staggered};
     }},
    {"long", 144, 0x28e09d11ab16ca54ull,
     [](std::uint64_t seed) {
         // --kinds matched,sectioned,prand --sigmas 1
         // --lengths 4096,65536,1000000, one start drawn from the
         // seed instead of the fixed start 0.
         ScenarioGrid g;
         g.mappings =
             mappings({MemoryKind::Matched, MemoryKind::Sectioned,
                       MemoryKind::PseudoRandom});
         g.addFamilies(0, 7, {1});
         g.lengths = {4096, 65536, 1000000};
         g.starts = {};
         g.randomStarts = 1;
         g.seed = seed;
         return std::vector<ScenarioGrid>{g};
     }},
};

const Entry *
find(const std::string &name)
{
    for (const Entry &e : kEntries) {
        if (name == e.name)
            return &e;
    }
    return nullptr;
}

const Entry &
entry(const std::string &name)
{
    const Entry *e = find(name);
    if (!e) {
        std::cerr << "perfbench: unknown workload " << name << "\n";
        std::abort();
    }
    return *e;
}

} // namespace

std::size_t
Workload::jobs() const
{
    std::size_t n = 0;
    for (const auto &g : grids)
        n += g.jobCount();
    return n;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Entry &e : kEntries)
            v.push_back(e.name);
        return v;
    }();
    return names;
}

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    const Entry *e = find(name);
    if (!e)
        return std::nullopt;
    return Workload{e->name, e->grids(seed)};
}

std::size_t
pinnedJobs(const std::string &name)
{
    return entry(name).jobs;
}

std::uint64_t
referenceDigest(const std::string &name)
{
    return entry(name).digest;
}

} // namespace perfbench
