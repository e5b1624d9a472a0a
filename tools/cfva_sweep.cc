/**
 * @file
 * cfva_sweep: batch conflict-free access simulation from the
 * command line.
 *
 * Builds a ScenarioGrid from the options below, runs it on the
 * SweepEngine, and prints a per-mapping summary (optionally the
 * full per-scenario table as CSV/JSON).  --shard I/N restricts the
 * run to the i-th of N deterministic, disjoint job slices (combine
 * the outputs with cfva_merge); --stream pipes outcomes straight
 * through the CSV/JSON sinks so peak memory stays O(threads x
 * grain) instead of O(jobs).  --bench times the same grid at
 * several thread counts, reports the speedup and the backend-cache
 * effect, and drops a machine-readable BENCH_sweep.json so the
 * perf trajectory is tracked across PRs.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cfva/cfva.h"
#include "common/logging.h"
#include "sim/cli.h"
#include "sim/sweep_sink.h"

using namespace cfva;

namespace {

void
usage(std::ostream &os)
{
    os << "usage: cfva_sweep [options]\n"
          "\n"
          "Grid axes (comma-separated lists cross-multiply):\n"
          "  --kinds K1,K2      matched | sectioned | simple |\n"
          "                     dynamic | prand (default\n"
          "                     matched,sectioned)\n"
          "  --tunes LIST       field positions p for kind=dynamic\n"
          "                     (default 0)\n"
          "  --t LIST           log2 service time T (default 2,3)\n"
          "  --lambda LIST      log2 register length (default 7)\n"
          "  --m LIST           log2 module count for kind=simple\n"
          "  --families LO..HI  stride families x (default 0..7)\n"
          "  --sigmas LIST      odd multipliers (default "
          "1,3,5,7,9,11,13,15)\n"
          "  --strides LIST     explicit strides (replaces "
          "families/sigmas)\n"
          "  --lengths LIST     access lengths; 0 = full register "
          "(default 0)\n"
          "  --starts LIST      start addresses (default 0)\n"
          "  --random-starts N  extra random starts per combo "
          "(default 3)\n"
          "  --workloads LIST   workload programs per scenario:\n"
          "                     single | chain | retune | stencil\n"
          "                     (default single).  chain runs\n"
          "                     LOAD->EXECUTE and reports decoupled\n"
          "                     vs chained totals (Sec. 5F); retune\n"
          "                     runs two stride phases and charges\n"
          "                     a DynamicTuned mapping's displacedBy\n"
          "                     relayout between them (Sec. 6);\n"
          "                     stencil runs 3 shifted loads, a\n"
          "                     chained execute, and a store\n"
          "  --exec-latency N   execute pipeline depth of chain/\n"
          "                     stencil EXECUTE steps (default 1)\n"
          "  --retune-period N  accesses per stride phase of the\n"
          "                     retune workload (default 1)\n"
          "  --ports LIST       simultaneous ports (default 1)\n"
          "  --port-mix M1/M2   per-port traffic mixes; each mix is\n"
          "                     comma-separated signed stride\n"
          "                     multipliers cycled over the ports\n"
          "                     (negative = descending access), '/'\n"
          "                     separates mixes (default 1 = every\n"
          "                     port clones the base stride)\n"
          "  --port-stagger N   address distance between\n"
          "                     simultaneous port streams (default\n"
          "                     1048576).  The default lands far\n"
          "                     outside every mapping's folded\n"
          "                     address field, so staggered ports\n"
          "                     share modules; a small stagger\n"
          "                     (e.g. the module distance 2^t)\n"
          "                     separates out-of-window streams\n"
          "                     into disjoint modules, which the\n"
          "                     theory tier claims analytically\n"
          "  --seed S           seed for random starts\n"
          "\n"
          "Execution and output:\n"
          "  --engine E         percycle | event | both (default\n"
          "                     percycle): the simulation tier's\n"
          "                     reference engine; 'both' runs the\n"
          "                     grid on each engine, cross-checks\n"
          "                     the reports bit for bit, and exits\n"
          "                     non-zero on any mismatch\n"
          "  --tier T           sim | theory | audit (default sim):\n"
          "                     'theory' answers provable and\n"
          "                     periodic accesses analytically and\n"
          "                     steps the rest on the event engines\n"
          "                     (any --engine); 'audit' runs both\n"
          "                     tiers on every scenario,\n"
          "                     cross-checks them bit for bit, and\n"
          "                     exits non-zero on any divergence\n"
          "  --map-path P       bitsliced | scalar (default\n"
          "                     bitsliced): premap request streams\n"
          "                     with the GF(2) bit-matrix kernel\n"
          "                     (64 elements per multiply) or the\n"
          "                     per-element walk; reports are bit-\n"
          "                     identical either way\n"
          "  --collapse C       on | off (default on): collapse\n"
          "                     single-port constant-stride streams\n"
          "                     to one steady-state period plus a\n"
          "                     closed-form extrapolation, with a\n"
          "                     base-invariant outcome memo on top;\n"
          "                     results are bit-identical either\n"
          "                     way (off = pure stepped oracle)\n"
          "  --threads N        worker threads (0 = all cores;\n"
          "                     clamped to the hardware)\n"
          "  --grain N          jobs per work item (0 = adaptive,\n"
          "                     the default: ~8 chunks per worker)\n"
          "  --shard I/N        run only the i-th (0-based) of N\n"
          "                     deterministic disjoint job slices;\n"
          "                     merge shard outputs with cfva_merge\n"
          "  --stream           stream CSV/JSON while the sweep\n"
          "                     runs (peak memory O(threads x\n"
          "                     grain), byte-identical output);\n"
          "                     incompatible with --engine both\n"
          "  --csv FILE         per-scenario CSV ('-' = stdout)\n"
          "  --json FILE        per-scenario JSON ('-' = stdout)\n"
          "  --no-summary       skip the summary table\n"
          "  --bench T1,T2,...  time the grid at each thread count\n"
          "                     (x each engine with --engine both)\n"
          "  --bench-reps N     timed repetitions per --bench row\n"
          "                     (default 0 = adaptive: at least 3\n"
          "                     reps and 0.25 s of cumulative wall\n"
          "                     time, at most 15); every row\n"
          "                     reports the median rep and records\n"
          "                     the rep count in BENCH_sweep.json\n"
          "  --bench-json FILE  machine-readable --bench results\n"
          "                     (default BENCH_sweep.json; 'none'\n"
          "                     disables)\n"
          "  --help\n";
}

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> parts;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            parts.push_back(item);
    return parts;
}

std::uint64_t
parseU64(const std::string &arg, const char *what)
{
    try {
        // stoull accepts (and wraps) a leading minus; reject it.
        if (arg.empty() || arg[0] == '-')
            throw std::invalid_argument(arg);
        std::size_t used = 0;
        const std::uint64_t v = std::stoull(arg, &used);
        if (used != arg.size())
            throw std::invalid_argument(arg);
        return v;
    } catch (const std::exception &) {
        cfva_fatal("bad ", what, " value: ", arg);
    }
}

unsigned
parseU32(const std::string &arg, const char *what)
{
    const std::uint64_t v = parseU64(arg, what);
    if (v > std::numeric_limits<unsigned>::max())
        cfva_fatal(what, " value out of range: ", arg);
    return static_cast<unsigned>(v);
}

std::vector<std::uint64_t>
parseU64List(const std::string &arg, const char *what)
{
    std::vector<std::uint64_t> vals;
    for (const auto &p : splitList(arg))
        vals.push_back(parseU64(p, what));
    if (vals.empty())
        cfva_fatal("empty ", what, " list");
    return vals;
}

/** sim::splitFlagList + parseU64 per item: a strict numeric list
 *  (empty items and duplicates are hard errors naming the flag). */
std::vector<std::uint64_t>
strictU64List(const char *flag, const std::string &arg)
{
    std::vector<std::uint64_t> vals;
    for (const auto &p : sim::splitFlagList(flag, arg))
        vals.push_back(parseU64(p, flag));
    return vals;
}

/** Parses "LO..HI" (or a single value) into an inclusive range. */
std::pair<unsigned, unsigned>
parseRange(const std::string &arg, const char *what)
{
    auto bounded = [&](const std::string &part) {
        const std::uint64_t v = parseU64(part, what);
        if (v >= 63) // Stride::fromFamily needs x < 63
            cfva_fatal(what, " value out of range: ", part);
        return static_cast<unsigned>(v);
    };
    const auto dots = arg.find("..");
    if (dots == std::string::npos) {
        const unsigned v = bounded(arg);
        return {v, v};
    }
    const unsigned lo = bounded(arg.substr(0, dots));
    const unsigned hi = bounded(arg.substr(dots + 2));
    if (lo > hi)
        cfva_fatal("empty range: ", arg);
    return {lo, hi};
}

MemoryKind
parseKind(const std::string &name)
{
    if (name == "matched")
        return MemoryKind::Matched;
    if (name == "sectioned")
        return MemoryKind::Sectioned;
    if (name == "simple")
        return MemoryKind::SimpleUnmatched;
    if (name == "dynamic")
        return MemoryKind::DynamicTuned;
    if (name == "prand")
        return MemoryKind::PseudoRandom;
    cfva_fatal("unknown memory kind: ", name,
               " (expected matched|sectioned|simple|dynamic|prand)");
}

sim::WorkloadKind
parseWorkloadKind(const std::string &name)
{
    if (name == "single")
        return sim::WorkloadKind::Single;
    if (name == "chain")
        return sim::WorkloadKind::Chain;
    if (name == "retune")
        return sim::WorkloadKind::Retune;
    if (name == "stencil")
        return sim::WorkloadKind::Stencil;
    cfva_fatal("unknown workload: ", name,
               " (expected single|chain|retune|stencil)");
}

MapPath
parseMapPath(const std::string &name)
{
    if (name == "bitsliced")
        return MapPath::BitSliced;
    if (name == "scalar")
        return MapPath::Scalar;
    cfva_fatal("unknown map path: ", name,
               " (expected bitsliced|scalar)");
}

CollapseMode
parseCollapse(const std::string &name)
{
    if (name == "on")
        return CollapseMode::On;
    if (name == "off")
        return CollapseMode::Off;
    cfva_fatal("unknown collapse mode: ", name,
               " (expected on|off)");
}

TierPolicy
parseTier(const std::string &name)
{
    if (name == "sim")
        return TierPolicy::SimulateAlways;
    if (name == "theory")
        return TierPolicy::TheoryFirst;
    if (name == "audit")
        return TierPolicy::AuditBoth;
    cfva_fatal("unknown tier: ", name,
               " (expected sim|theory|audit)");
}

std::vector<EngineKind>
parseEngines(const std::string &name)
{
    if (name == "percycle")
        return {EngineKind::PerCycle};
    if (name == "event")
        return {EngineKind::EventDriven};
    if (name == "both")
        return {EngineKind::PerCycle, EngineKind::EventDriven};
    cfva_fatal("unknown engine: ", name,
               " (expected percycle|event|both)");
}

std::ostream *
openSink(const std::string &path, std::ofstream &file)
{
    if (path == "-")
        return &std::cout;
    file.open(path);
    if (!file)
        cfva_fatal("cannot open ", path, " for writing");
    return &file;
}

/** Parses "I/N" into a 0-based shard spec. */
sim::ShardSpec
parseShard(const std::string &arg)
{
    const auto slash = arg.find('/');
    if (slash == std::string::npos || slash == 0
        || slash + 1 >= arg.size()) {
        cfva_fatal("--shard wants I/N (0-based), got: ", arg);
    }
    sim::ShardSpec shard;
    shard.index = parseU64(arg.substr(0, slash), "--shard index");
    shard.count = parseU64(arg.substr(slash + 1), "--shard count");
    if (shard.count == 0 || shard.index >= shard.count)
        cfva_fatal("--shard index must satisfy 0 <= I < N, got: ",
                   arg);
    return shard;
}

struct Options
{
    std::vector<std::string> kinds = {"matched", "sectioned"};
    std::vector<std::uint64_t> ts = {2, 3};
    std::vector<std::uint64_t> lambdas = {7};
    std::vector<std::uint64_t> ms; // only for kind=simple
    std::vector<std::uint64_t> tunes = {0}; // only for kind=dynamic
    std::pair<unsigned, unsigned> families = {0, 7};
    std::vector<std::uint64_t> sigmas = {1, 3, 5, 7, 9, 11, 13, 15};
    std::vector<std::uint64_t> strides; // explicit override
    std::vector<std::uint64_t> lengths = {0};
    std::vector<std::uint64_t> starts = {0};
    unsigned randomStarts = 3;
    std::vector<std::uint64_t> ports = {1};
    std::vector<sim::PortMix> portMixes = {sim::PortMix{}};
    Addr portStagger = Addr{1} << 20;
    std::vector<std::string> workloadNames = {"single"};
    std::uint64_t execLatency = 1;
    unsigned retunePeriod = 1;
    std::uint64_t seed = 0x5EEDF00Dull;

    unsigned threads = 0;
    std::size_t grain = 0; // 0 = adaptive
    sim::ShardSpec shard;
    bool stream = false;
    std::vector<EngineKind> engines = {EngineKind::PerCycle};
    TierPolicy tier = TierPolicy::SimulateAlways;
    MapPath mapPath = MapPath::BitSliced;
    CollapseMode collapse = CollapseMode::On;
    std::string csvPath;
    std::string jsonPath;
    bool summary = true;
    std::vector<std::uint64_t> benchThreads;
    unsigned benchReps = 0; // 0 = adaptive
    std::string benchJsonPath = "BENCH_sweep.json";
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    auto need = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            cfva_fatal(flag, " requires a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(std::cout);
            std::exit(0);
        } else if (a == "--kinds") {
            o.kinds = sim::splitFlagList("--kinds",
                                         need(i, "--kinds"));
        } else if (a == "--t") {
            o.ts = parseU64List(need(i, "--t"), "--t");
        } else if (a == "--lambda") {
            o.lambdas = parseU64List(need(i, "--lambda"), "--lambda");
        } else if (a == "--m") {
            o.ms = parseU64List(need(i, "--m"), "--m");
        } else if (a == "--tunes") {
            o.tunes = strictU64List("--tunes", need(i, "--tunes"));
        } else if (a == "--families") {
            o.families =
                parseRange(need(i, "--families"), "--families");
        } else if (a == "--sigmas") {
            o.sigmas = parseU64List(need(i, "--sigmas"), "--sigmas");
        } else if (a == "--strides") {
            o.strides =
                parseU64List(need(i, "--strides"), "--strides");
        } else if (a == "--lengths") {
            o.lengths =
                parseU64List(need(i, "--lengths"), "--lengths");
        } else if (a == "--starts") {
            o.starts = parseU64List(need(i, "--starts"), "--starts");
        } else if (a == "--random-starts") {
            o.randomStarts = parseU32(need(i, "--random-starts"),
                                      "--random-starts");
        } else if (a == "--ports") {
            o.ports = parseU64List(need(i, "--ports"), "--ports");
        } else if (a == "--port-mix") {
            o.portMixes = sim::parsePortMixFlag(
                "--port-mix", need(i, "--port-mix"));
        } else if (a == "--port-stagger") {
            o.portStagger = parseU64(need(i, "--port-stagger"),
                                     "--port-stagger");
            if (o.portStagger == 0)
                cfva_fatal("--port-stagger must be >= 1");
        } else if (a == "--workloads") {
            o.workloadNames = sim::splitFlagList(
                "--workloads", need(i, "--workloads"));
        } else if (a == "--exec-latency") {
            o.execLatency = parseU64(need(i, "--exec-latency"),
                                     "--exec-latency");
            if (o.execLatency == 0)
                cfva_fatal("--exec-latency must be >= 1");
        } else if (a == "--retune-period") {
            o.retunePeriod = parseU32(need(i, "--retune-period"),
                                      "--retune-period");
            if (o.retunePeriod == 0)
                cfva_fatal("--retune-period must be >= 1");
        } else if (a == "--seed") {
            o.seed = parseU64(need(i, "--seed"), "--seed");
        } else if (a == "--engine") {
            o.engines = parseEngines(need(i, "--engine"));
        } else if (a == "--tier") {
            o.tier = parseTier(need(i, "--tier"));
        } else if (a == "--map-path") {
            o.mapPath = parseMapPath(need(i, "--map-path"));
        } else if (a == "--collapse") {
            o.collapse = parseCollapse(need(i, "--collapse"));
        } else if (a == "--threads") {
            o.threads = parseU32(need(i, "--threads"),
                                 "--threads");
        } else if (a == "--grain") {
            o.grain = parseU64(need(i, "--grain"), "--grain");
        } else if (a == "--shard") {
            o.shard = parseShard(need(i, "--shard"));
        } else if (a == "--stream") {
            o.stream = true;
        } else if (a == "--bench-reps") {
            o.benchReps = parseU32(need(i, "--bench-reps"),
                                   "--bench-reps");
        } else if (a == "--bench-json") {
            o.benchJsonPath = need(i, "--bench-json");
        } else if (a == "--csv") {
            o.csvPath = need(i, "--csv");
        } else if (a == "--json") {
            o.jsonPath = need(i, "--json");
        } else if (a == "--no-summary") {
            o.summary = false;
        } else if (a == "--bench") {
            o.benchThreads =
                parseU64List(need(i, "--bench"), "--bench");
        } else {
            usage(std::cerr);
            cfva_fatal("unknown option: ", a);
        }
    }
    return o;
}

sim::ScenarioGrid
buildGrid(const Options &o)
{
    sim::ScenarioGrid grid;
    for (const auto &kindName : o.kinds) {
        const MemoryKind kind = parseKind(kindName);
        const bool usesS = kind == MemoryKind::Matched
                           || kind == MemoryKind::SimpleUnmatched
                           || kind == MemoryKind::Sectioned;
        for (std::uint64_t t : o.ts) {
            for (std::uint64_t lambda : o.lambdas) {
                if (usesS && lambda < 2 * t) {
                    // s = lambda-t >= t (Sec. 3.3) is unsatisfiable.
                    cfva_warn("skipping ", kindName, " t=", t,
                              " lambda=", lambda,
                              " (needs lambda >= 2t)");
                    continue;
                }
                VectorUnitConfig cfg;
                cfg.kind = kind;
                cfg.t = static_cast<unsigned>(t);
                cfg.lambda = static_cast<unsigned>(lambda);
                if (kind == MemoryKind::SimpleUnmatched) {
                    if (o.ms.empty())
                        cfva_fatal("kind=simple needs --m");
                    for (std::uint64_t m : o.ms) {
                        cfg.mOverride = static_cast<unsigned>(m);
                        grid.mappings.push_back(cfg);
                    }
                } else if (kind == MemoryKind::DynamicTuned) {
                    for (std::uint64_t p : o.tunes) {
                        cfg.dynamicTune = static_cast<unsigned>(p);
                        grid.mappings.push_back(cfg);
                    }
                } else {
                    grid.mappings.push_back(cfg);
                }
            }
        }
    }
    if (grid.mappings.empty())
        cfva_fatal("no valid mapping configurations in the grid "
                   "(every lambda < 2t?)");

    if (!o.strides.empty()) {
        for (std::uint64_t s : o.strides)
            if (s == 0)
                cfva_fatal("--strides values must be positive");
        grid.strides = o.strides;
    } else {
        for (std::uint64_t sigma : o.sigmas) {
            if (sigma % 2 == 0)
                cfva_fatal("--sigmas values must be odd, got ",
                           sigma);
            if (sigma > (~std::uint64_t{0} >> o.families.second))
                cfva_fatal("--sigmas ", sigma, " * 2^",
                           o.families.second,
                           " overflows 64 bits");
        }
        grid.addFamilies(o.families.first, o.families.second,
                         o.sigmas);
    }
    grid.lengths = o.lengths;
    grid.starts = o.starts;
    grid.randomStarts = o.randomStarts;
    grid.ports.clear();
    for (std::uint64_t p : o.ports) {
        if (p == 0 || p > 1024)
            cfva_fatal("--ports values must be in 1..1024, got ", p);
        grid.ports.push_back(static_cast<unsigned>(p));
    }
    grid.portMixes = o.portMixes;
    grid.portStagger = o.portStagger;
    grid.workloads.clear();
    for (const auto &name : o.workloadNames) {
        sim::Workload wl;
        wl.kind = parseWorkloadKind(name);
        wl.execLatency = o.execLatency;
        wl.retunePeriod = o.retunePeriod;
        grid.workloads.push_back(wl);
    }
    grid.seed = o.seed;
    return grid;
}

/** True when the grid carries a workload worth its own summary. */
bool
wantsWorkloadSummary(const sim::ScenarioGrid &grid)
{
    return grid.workloads.size() > 1
           || grid.workloads.front().kind
                  != sim::WorkloadKind::Single;
}

/** Prints the theory-tier claim rate (and audit verdict) of a run;
 *  silent under the default sim tier. */
void
printTierStats(std::ostream &info, TierPolicy tier,
               const sim::SweepRunStats &stats)
{
    if (tier == TierPolicy::SimulateAlways)
        return;
    const std::uint64_t total =
        stats.theoryClaims + stats.theoryFallbacks;
    info << "theory tier: " << stats.theoryClaims << " claimed / "
         << stats.theoryFallbacks << " simulated ("
         << fixed(total ? 100.0
                              * static_cast<double>(
                                  stats.theoryClaims)
                              / static_cast<double>(total)
                        : 0.0,
                  1)
         << "% of accesses answered analytically)\n";
    info << "fallback taxonomy: " << stats.fallbackConflicted
         << " conflicted, " << stats.fallbackMultiport
         << " multiport, " << stats.fallbackUnproven
         << " unproven, " << stats.fallbackDynamic
         << " dynamic (executed scenarios with any simulated "
            "access)\n";
    if (tier == TierPolicy::AuditBoth) {
        info << (stats.tierAuditDivergences
                     ? "TIER AUDIT DIVERGENCE"
                     : "tier audit: both tiers identical")
             << " (" << stats.tierAuditDivergences
             << " divergent scenarios)\n";
    }
}

/** Prints the collapse/memo fast-path counters of a run; silent
 *  when the fast path is disabled (every counter is 0 there). */
void
printFastPathStats(std::ostream &info, CollapseMode collapse,
                   const sim::SweepRunStats &stats)
{
    if (collapse == CollapseMode::Off)
        return;
    info << "fast path: " << stats.collapseHits
         << " steady-state collapses ("
         << stats.collapsePrefixCycles
         << " prefix cycles stepped), " << stats.memoHits
         << " memo hits / " << stats.memoMisses << " misses, "
         << stats.steppedCycles
         << " cycles stepped without a jump\n";
}

double
timedRun(const sim::SweepEngine &engine,
         const sim::ScenarioGrid &grid, sim::SweepReport &report,
         sim::SweepRunStats *stats = nullptr)
{
    const auto start = std::chrono::steady_clock::now();
    report = engine.run(grid, stats);
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

/**
 * Times one --bench leg over repeated runs and keeps the
 * median-time rep's report and stats.  @p benchReps fixes the rep
 * count; 0 repeats adaptively — at least kMinReps reps, continuing
 * until kMinWallSeconds of cumulative wall time or kMaxReps, so
 * sub-millisecond legs still get a stable median without slow legs
 * paying 15x.
 */
struct RepTiming
{
    double seconds = 0.0; //!< the median rep's wall time
    unsigned reps = 0;    //!< timed reps behind the median
};

RepTiming
timedReps(const sim::SweepOptions &opts,
          const sim::ScenarioGrid &grid, unsigned benchReps,
          sim::SweepReport &report, sim::SweepRunStats &stats)
{
    constexpr unsigned kMinReps = 3;
    constexpr unsigned kMaxReps = 15;
    constexpr double kMinWallSeconds = 0.25;
    std::vector<double> times;
    std::vector<sim::SweepReport> reports;
    std::vector<sim::SweepRunStats> allStats;
    double total = 0.0;
    for (unsigned rep = 0;; ++rep) {
        if (benchReps) {
            if (rep >= benchReps)
                break;
        } else if (rep >= kMinReps
                   && (total >= kMinWallSeconds
                       || rep >= kMaxReps)) {
            break;
        }
        sim::SweepReport r;
        sim::SweepRunStats s;
        const double secs =
            timedRun(sim::SweepEngine(opts), grid, r, &s);
        total += secs;
        times.push_back(secs);
        reports.push_back(std::move(r));
        allStats.push_back(s);
    }
    std::vector<std::size_t> order(times.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return times[a] < times[b];
              });
    const std::size_t mid = order[(order.size() - 1) / 2];
    report = std::move(reports[mid]);
    stats = allStats[mid];
    return {times[mid], static_cast<unsigned>(times.size())};
}

/** One timed --bench row, kept for the BENCH_sweep.json emission. */
struct BenchRun
{
    EngineKind engine = EngineKind::PerCycle;
    TierPolicy tier = TierPolicy::SimulateAlways;
    CollapseMode collapse = CollapseMode::On;
    std::uint64_t threads = 0;
    unsigned reps = 0;
    double seconds = 0.0;
    double scenariosPerSec = 0.0;
    double speedup = 0.0;
    sim::SweepRunStats stats;
};

/** One per-(workload, tier) --bench timing row: the grid narrowed
 *  to a single workload program under one evaluation tier, so the
 *  perf trajectory tracks program-level scenarios, not just raw
 *  accesses, for every tier the bench actually ran. */
struct WorkloadBenchRun
{
    std::string label;
    TierPolicy tier = TierPolicy::SimulateAlways;
    CollapseMode collapse = CollapseMode::On;
    std::size_t jobs = 0;
    unsigned reps = 0;
    double seconds = 0.0;
    double scenariosPerSec = 0.0;
};

void
writeBenchJson(const std::string &path, const Options &o,
               const sim::ScenarioGrid &grid,
               const std::vector<BenchRun> &runs,
               const std::vector<WorkloadBenchRun> &workloadRuns,
               bool identical)
{
    if (path == "none")
        return;
    std::ofstream out(path);
    if (!out)
        cfva_fatal("cannot open ", path, " for writing");
    out << "{\n  \"grid_jobs\": " << grid.jobCount()
        << ",\n  \"shard\": \"" << o.shard.index << "/"
        << o.shard.count << "\",\n  \"grain\": " << o.grain
        << ",\n  \"tier\": \"" << to_string(o.tier)
        << "\",\n  \"map_path\": \"" << to_string(o.mapPath)
        << "\",\n  \"collapse\": \"" << to_string(o.collapse)
        << "\",\n  \"reports_identical\": "
        << (identical ? "true" : "false") << ",\n  \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const BenchRun &r = runs[i];
        out << (i ? ",\n" : "\n") << "    {\"engine\": \""
            << to_string(r.engine) << "\", \"tier\": \""
            << to_string(r.tier) << "\", \"collapse\": \""
            << to_string(r.collapse) << "\", \"threads\": "
            << r.threads << ", \"reps\": " << r.reps
            << ", \"seconds\": " << fixed(r.seconds, 6)
            << ", \"scenarios_per_s\": "
            << fixed(r.scenariosPerSec, 0) << ", \"speedup\": "
            << fixed(r.speedup, 3) << ", \"effective_grain\": "
            << r.stats.grain << ", \"chunks\": " << r.stats.chunks
            << ", \"backend_cache_hits\": "
            << r.stats.backendCacheHits
            << ", \"backend_cache_misses\": "
            << r.stats.backendCacheMisses
            << ", \"theory_claimed\": " << r.stats.theoryClaims
            << ", \"theory_fallback\": " << r.stats.theoryFallbacks
            << ", \"fallback_conflicted\": "
            << r.stats.fallbackConflicted
            << ", \"fallback_multiport\": "
            << r.stats.fallbackMultiport
            << ", \"fallback_unproven\": "
            << r.stats.fallbackUnproven
            << ", \"fallback_dynamic\": "
            << r.stats.fallbackDynamic
            << ", \"tier_audit_divergences\": "
            << r.stats.tierAuditDivergences
            << ", \"collapse_hits\": " << r.stats.collapseHits
            << ", \"collapse_prefix_cycles\": "
            << r.stats.collapsePrefixCycles
            << ", \"memo_hits\": " << r.stats.memoHits
            << ", \"memo_misses\": " << r.stats.memoMisses
            << ", \"stepped_cycles\": " << r.stats.steppedCycles
            << ", \"peak_pending_outcomes\": "
            << r.stats.peakPendingOutcomes
            << ", \"arena_acquires\": " << r.stats.arenaAcquires
            << ", \"arena_reuses\": " << r.stats.arenaReuses
            << ", \"arena_peak_bytes\": " << r.stats.arenaPeakBytes
            << "}";
    }
    out << "\n  ],\n  \"workloads\": [";
    for (std::size_t i = 0; i < workloadRuns.size(); ++i) {
        const WorkloadBenchRun &w = workloadRuns[i];
        out << (i ? ",\n" : "\n") << "    {\"workload\": \""
            << w.label << "\", \"tier\": \"" << to_string(w.tier)
            << "\", \"collapse\": \"" << to_string(w.collapse)
            << "\", \"jobs\": " << w.jobs
            << ", \"reps\": " << w.reps
            << ", \"seconds\": " << fixed(w.seconds, 6)
            << ", \"scenarios_per_s\": "
            << fixed(w.scenariosPerSec, 0) << "}";
    }
    out << "\n  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const sim::ScenarioGrid grid = buildGrid(o);

    // Keep stdout clean for machine-readable output when a data
    // sink targets it.
    const bool stdoutIsSink = o.csvPath == "-" || o.jsonPath == "-";
    if (o.csvPath == "-" && o.jsonPath == "-")
        cfva_fatal("--csv - and --json - cannot share stdout");
    std::ostream &info = stdoutIsSink ? std::cerr : std::cout;

    info << "grid: " << grid.mappings.size() << " mappings x "
              << grid.strides.size() << " strides x "
              << grid.lengths.size() << " lengths x "
              << (grid.starts.size() + grid.randomStarts)
              << " starts x " << grid.workloads.size()
              << " workloads x " << grid.ports.size() << " ports x "
              << grid.portMixes.size() << " mixes = "
              << grid.jobCount() << " scenarios\n";
    if (o.shard.count > 1) {
        const auto [first, last] = o.shard.sliceOf(grid.jobCount());
        info << "shard: " << o.shard.index << "/" << o.shard.count
             << " covering jobs [" << first << ", " << last
             << ") = " << (last - first) << " scenarios\n";
    }
    if (o.stream && o.engines.size() > 1)
        cfva_fatal("--stream cannot cross-check: the comparison "
                   "needs the materialized reports (drop --stream "
                   "or pick one engine)");
    if (o.stream && !o.benchThreads.empty())
        cfva_fatal("--bench times materialized runs; it cannot "
                   "honor --stream (drop one of the two)");

    std::string engineNames = to_string(o.engines.front());
    for (std::size_t e = 1; e < o.engines.size(); ++e)
        engineNames += std::string(" + ") + to_string(o.engines[e]);
    info << "engine: " << engineNames << "\n";
    if (o.tier != TierPolicy::SimulateAlways)
        info << "tier: " << to_string(o.tier) << "\n";
    if (o.mapPath != MapPath::BitSliced)
        info << "map path: " << to_string(o.mapPath) << "\n";
    if (o.collapse != CollapseMode::On)
        info << "collapse: " << to_string(o.collapse) << "\n";

    if (!o.benchThreads.empty()) {
        TextTable t({"engine", "tier", "collapse", "threads", "reps",
                     "seconds", "scenarios/s", "speedup"});
        // Under --tier theory the bench times the simulation
        // baseline too — with the collapse fast path off (the pure
        // stepped oracle) and on — so BENCH_sweep.json records what
        // each fast-path tier buys next to what it replaced.
        struct Leg
        {
            TierPolicy tier;
            CollapseMode collapse;
        };
        std::vector<Leg> legs;
        if (o.tier == TierPolicy::TheoryFirst) {
            if (o.collapse == CollapseMode::On)
                legs = {{TierPolicy::SimulateAlways,
                         CollapseMode::Off},
                        {TierPolicy::SimulateAlways,
                         CollapseMode::On},
                        {TierPolicy::TheoryFirst,
                         CollapseMode::On}};
            else
                legs = {{TierPolicy::SimulateAlways,
                         CollapseMode::Off},
                        {TierPolicy::TheoryFirst,
                         CollapseMode::Off}};
        } else {
            legs = {{o.tier, o.collapse}};
        }
        double base = 0.0;
        sim::SweepReport first;
        bool allIdentical = true;
        std::vector<BenchRun> runs;
        {
            // Discarded warm-up run so one-time costs (page
            // faults, allocator growth) don't skew the baseline.
            sim::SweepOptions warm;
            warm.threads =
                static_cast<unsigned>(o.benchThreads.front());
            warm.grain = o.grain;
            warm.shard = o.shard;
            warm.engine = o.engines.front();
            warm.tier = o.tier;
            warm.mapPath = o.mapPath;
            warm.collapse = o.collapse;
            sim::SweepReport scratch;
            timedRun(sim::SweepEngine(warm), grid, scratch);
        }
        // The engine clamps workers to the hardware, so on a host
        // with fewer cores than the requested counts the surplus
        // rows would time the identical clamped run again — skip
        // them instead of recording misleading "scaling" numbers.
        const unsigned hw =
            std::max(1u, std::thread::hardware_concurrency());
        std::vector<std::uint64_t> benchThreads;
        for (std::uint64_t threads : o.benchThreads) {
            const std::uint64_t clamped =
                threads ? std::min<std::uint64_t>(threads, hw) : hw;
            if (std::find(benchThreads.begin(), benchThreads.end(),
                          clamped)
                != benchThreads.end()) {
                info << "bench: skipping threads=" << threads
                     << " (clamps to " << clamped << " on " << hw
                     << "-core host, already timed)\n";
                continue;
            }
            benchThreads.push_back(clamped);
        }
        // Tier attribution legitimately differs between tiers;
        // identity across runs is judged on everything else.
        const auto stripTier = [](sim::SweepReport r) {
            for (auto &outcome : r.outcomes) {
                outcome.theoryClaimed = 0;
                outcome.theoryFallback = 0;
                outcome.fallbackReason = FallbackReason::None;
            }
            return r;
        };
        sim::SweepReport firstStripped;
        bool haveBase = false;
        for (EngineKind engine : o.engines) {
            for (const Leg &leg : legs) {
                for (std::uint64_t threads : benchThreads) {
                    sim::SweepOptions opts;
                    opts.threads = static_cast<unsigned>(threads);
                    opts.grain = o.grain;
                    opts.shard = o.shard;
                    opts.engine = engine;
                    opts.tier = leg.tier;
                    opts.mapPath = o.mapPath;
                    opts.collapse = leg.collapse;
                    sim::SweepReport report;
                    sim::SweepRunStats stats;
                    const RepTiming timing = timedReps(
                        opts, grid, o.benchReps, report, stats);
                    const double secs = timing.seconds;
                    if (!haveBase) {
                        base = secs;
                        first = report;
                        firstStripped = stripTier(report);
                        haveBase = true;
                    } else {
                        allIdentical &=
                            stripTier(report) == firstStripped;
                    }
                    BenchRun row;
                    row.engine = engine;
                    row.tier = leg.tier;
                    row.collapse = leg.collapse;
                    row.threads = threads;
                    row.reps = timing.reps;
                    row.seconds = secs;
                    row.scenariosPerSec =
                        static_cast<double>(report.jobs()) / secs;
                    row.speedup = base / secs;
                    row.stats = stats;
                    runs.push_back(row);
                    t.row(to_string(engine), to_string(leg.tier),
                          to_string(leg.collapse), threads,
                          timing.reps, fixed(secs, 3),
                          fixed(row.scenariosPerSec, 0),
                          fixed(row.speedup, 2));
                }
            }
        }
        t.print(info, "SweepEngine scaling [engine: " + engineNames
                          + "]");

        // Per-workload timing rows: the same grid narrowed to each
        // workload program in turn (first engine, first thread
        // count), one row per evaluation tier the scaling bench
        // actually ran, so BENCH_sweep.json tracks program-level
        // scenarios — chain/retune/stencil sequences — under every
        // tier instead of recording only the leading run.  A
        // single-workload grid reuses the matching scaling rows:
        // the narrowed grid would be the grid already timed.
        std::vector<WorkloadBenchRun> workloadRuns;
        {
            TextTable wt({"workload", "tier", "collapse", "jobs",
                          "reps", "seconds", "scenarios/s"});
            // The committed BENCH artifact should track every
            // workload program even when the grid itself runs only
            // the default single-access job: widen the bench-only
            // workload list to all four kinds in that case (the
            // extra kinds inherit the grid workload's tuning).
            std::vector<sim::Workload> benchWorkloads(
                grid.workloads.begin(), grid.workloads.end());
            if (grid.workloads.size() == 1
                && grid.workloads.front().kind
                       == sim::WorkloadKind::Single) {
                for (sim::WorkloadKind kind :
                     {sim::WorkloadKind::Chain,
                      sim::WorkloadKind::Retune,
                      sim::WorkloadKind::Stencil}) {
                    sim::Workload wl = grid.workloads.front();
                    wl.kind = kind;
                    benchWorkloads.push_back(wl);
                }
            }
            for (const auto &wl : benchWorkloads) {
                // Reuse is only sound when the narrowed grid IS
                // the grid already timed by the scaling rows.
                const bool sameAsGrid =
                    grid.workloads.size() == 1
                    && wl.kind == grid.workloads.front().kind;
                for (const Leg &leg : legs) {
                    WorkloadBenchRun row;
                    row.label = wl.label();
                    row.tier = leg.tier;
                    row.collapse = leg.collapse;
                    const BenchRun *reuse = nullptr;
                    if (sameAsGrid) {
                        for (const auto &r : runs) {
                            if (r.engine == o.engines.front()
                                && r.tier == leg.tier
                                && r.collapse == leg.collapse
                                && r.threads
                                       == benchThreads.front()) {
                                reuse = &r;
                                break;
                            }
                        }
                    }
                    if (reuse) {
                        row.jobs = first.jobs();
                        row.reps = reuse->reps;
                        row.seconds = reuse->seconds;
                        row.scenariosPerSec = reuse->scenariosPerSec;
                    } else {
                        sim::ScenarioGrid sub = grid;
                        sub.workloads = {wl};
                        sim::SweepOptions opts;
                        opts.threads = static_cast<unsigned>(
                            benchThreads.front());
                        opts.grain = o.grain;
                        opts.shard = o.shard;
                        opts.engine = o.engines.front();
                        opts.tier = leg.tier;
                        opts.mapPath = o.mapPath;
                        opts.collapse = leg.collapse;
                        sim::SweepReport r;
                        sim::SweepRunStats s;
                        const RepTiming timing =
                            timedReps(opts, sub, o.benchReps, r, s);
                        row.reps = timing.reps;
                        row.seconds = timing.seconds;
                        row.jobs = r.jobs();
                        row.scenariosPerSec =
                            static_cast<double>(r.jobs())
                            / row.seconds;
                    }
                    workloadRuns.push_back(row);
                    wt.row(row.label, to_string(row.tier),
                           to_string(row.collapse), row.jobs, row.reps,
                           fixed(row.seconds, 3),
                           fixed(row.scenariosPerSec, 0));
                }
            }
            wt.print(info, "Per-workload timing [engine: "
                               + std::string(to_string(
                                   o.engines.front()))
                               + ", threads: "
                               + std::to_string(benchThreads.front())
                               + "]");
        }
        info << (allIdentical
                     ? "reports identical across thread counts, "
                       "engines, and tiers\n"
                     : "REPORT MISMATCH across thread counts, "
                       "engines, or tiers\n");
        if (!runs.empty()) {
            // The backend cache turns all but the first touch of
            // each (engine, mapping) per worker into reuse; the
            // hit fraction is the setup cost removed at large M.
            const auto &s = runs.front().stats;
            info << "backend cache: " << s.backendCacheHits
                 << " hits / " << s.backendCacheMisses
                 << " misses ("
                 << fixed(s.backendCacheHits + s.backendCacheMisses
                              ? 100.0
                                    * static_cast<double>(
                                        s.backendCacheHits)
                                    / static_cast<double>(
                                        s.backendCacheHits
                                        + s.backendCacheMisses)
                              : 0.0,
                          1)
                 << "% of backend lookups reused)\n";
            info << "worker arena: " << s.arenaReuses << " of "
                 << s.arenaAcquires
                 << " buffer acquires served from pools, peak "
                 << s.arenaPeakBytes << " bytes retained\n";
            // The first row with the requested tier and collapse
            // mode carries the attribution (under --tier theory
            // the leading rows are the oracle baselines and count
            // nothing, or only the sim-tier share).
            const BenchRun *tierRow = &runs.front();
            for (const auto &r : runs) {
                if (r.tier == o.tier && r.collapse == o.collapse) {
                    tierRow = &r;
                    break;
                }
            }
            printFastPathStats(info, o.collapse, tierRow->stats);
            printTierStats(info, o.tier, tierRow->stats);
        }
        std::uint64_t auditDivergences = 0;
        for (const auto &r : runs)
            auditDivergences += r.stats.tierAuditDivergences;
        writeBenchJson(o.benchJsonPath, o, grid, runs, workloadRuns,
                       allIdentical);
        if (!o.csvPath.empty()) {
            std::ofstream file;
            first.writeCsv(*openSink(o.csvPath, file));
        }
        if (!o.jsonPath.empty()) {
            std::ofstream file;
            first.writeJson(*openSink(o.jsonPath, file));
        }
        return (allIdentical && auditDivergences == 0) ? 0 : 1;
    }

    if (o.stream) {
        // Streaming mode: outcomes flow straight through the
        // CSV/JSON sinks (and an O(1)-memory summary accumulator)
        // in job order; nothing is materialized.  Exactly one
        // engine runs here (checked above).
        sim::SweepOptions opts;
        opts.threads = o.threads;
        opts.grain = o.grain;
        opts.shard = o.shard;
        opts.engine = o.engines.front();
        opts.tier = o.tier;
        opts.mapPath = o.mapPath;
        opts.collapse = o.collapse;

        std::ofstream csvFile, jsonFile;
        std::optional<sim::CsvStreamSink> csvSink;
        std::optional<sim::JsonStreamSink> jsonSink;
        std::vector<sim::SweepSink *> sinks;
        if (!o.csvPath.empty()) {
            csvSink.emplace(*openSink(o.csvPath, csvFile));
            sinks.push_back(&*csvSink);
        }
        if (!o.jsonPath.empty()) {
            jsonSink.emplace(*openSink(o.jsonPath, jsonFile));
            sinks.push_back(&*jsonSink);
        }
        sim::SummarySink summary;
        if (o.summary)
            sinks.push_back(&summary);
        sim::TeeSink tee(std::move(sinks));

        sim::SweepRunStats stats;
        const auto start = std::chrono::steady_clock::now();
        sim::SweepEngine(opts).runToSink(grid, tee, &stats);
        const auto stop = std::chrono::steady_clock::now();
        const double secs =
            std::chrono::duration<double>(stop - start).count();

        if (o.summary) {
            info << to_string(o.engines.front()) << ": "
                 << stats.jobs << " scenarios streamed in "
                 << fixed(secs, 3) << " s ("
                 << fixed(static_cast<double>(stats.jobs) / secs, 0)
                 << " scenarios/s, peak "
                 << stats.peakPendingOutcomes
                 << " outcomes in flight, window "
                 << stats.pendingWindow << ")\n";
            summary.summaryTable().print(info, "Sweep summary");
            if (wantsWorkloadSummary(grid))
                summary.workloadTable().print(info,
                                              "Workload summary");
            info << summary.conflictFreeJobs() << " of "
                 << summary.jobs() << " scenarios conflict free\n";
            info << "backend cache: " << stats.backendCacheHits
                 << " hits / " << stats.backendCacheMisses
                 << " misses\n";
            printFastPathStats(info, o.collapse, stats);
            printTierStats(info, o.tier, stats);
        }
        return stats.tierAuditDivergences == 0 ? 0 : 1;
    }

    // One timed run per requested engine; with --engine both the
    // second report is cross-checked bit for bit against the first.
    sim::SweepReport report;
    sim::SweepRunStats firstStats;
    bool crossChecked = false;
    bool crossIdentical = true;
    std::uint64_t auditDivergences = 0;
    double firstSecs = 0.0;
    for (std::size_t e = 0; e < o.engines.size(); ++e) {
        sim::SweepOptions opts;
        opts.threads = o.threads;
        opts.grain = o.grain;
        opts.shard = o.shard;
        opts.engine = o.engines[e];
        opts.tier = o.tier;
        opts.mapPath = o.mapPath;
        opts.collapse = o.collapse;
        sim::SweepReport r;
        sim::SweepRunStats stats;
        const double secs =
            timedRun(sim::SweepEngine(opts), grid, r, &stats);
        auditDivergences += stats.tierAuditDivergences;
        if (o.summary) {
            info << to_string(o.engines[e]) << ": " << r.jobs()
                 << " scenarios in " << fixed(secs, 3) << " s ("
                 << fixed(static_cast<double>(r.jobs()) / secs, 0)
                 << " scenarios/s)";
            if (e > 0 && secs > 0.0)
                info << ", " << fixed(firstSecs / secs, 2)
                     << "x vs " << to_string(o.engines.front());
            info << "\n";
        }
        if (e == 0) {
            report = std::move(r);
            firstSecs = secs;
            firstStats = stats;
        } else {
            crossChecked = true;
            crossIdentical &= r == report;
        }
    }

    if (o.summary) {
        report.summaryTable().print(info, "Sweep summary");
        if (wantsWorkloadSummary(grid)) {
            sim::workloadSummaryTable(report.perWorkload())
                .print(info, "Workload summary");
        }
        info << report.conflictFreeJobs() << " of " << report.jobs()
             << " scenarios conflict free\n";
        info << "backend cache: " << firstStats.backendCacheHits
             << " hits / " << firstStats.backendCacheMisses
             << " misses\n";
        printFastPathStats(info, o.collapse, firstStats);
        printTierStats(info, o.tier, firstStats);
    }
    if (crossChecked) {
        info << (crossIdentical
                     ? "cross-engine reports identical\n"
                     : "CROSS-ENGINE REPORT MISMATCH\n");
    }
    if (!o.csvPath.empty()) {
        std::ofstream file;
        report.writeCsv(*openSink(o.csvPath, file));
    }
    if (!o.jsonPath.empty()) {
        std::ofstream file;
        report.writeJson(*openSink(o.jsonPath, file));
    }
    return (crossIdentical && auditDivergences == 0) ? 0 : 1;
}
