/**
 * @file
 * cfva_sweep: batch conflict-free access simulation from the
 * command line.
 *
 * Builds a ScenarioGrid from the options below, runs it on the
 * SweepEngine, and streams the outcomes in job order into the
 * per-scenario CSV/JSON files and a per-mapping summary.  --shard
 * I/N restricts the run to the i-th of N deterministic, disjoint
 * job slices (combine the outputs with cfva_merge).  --tier picks
 * who answers each scenario: the evaluator (the default), the
 * stepped oracle, or both with a bit-for-bit audit.  Throughput is
 * measured by the repository's benchmark, perfbench/.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
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
          "  --tier T           theory | sim | audit (default\n"
          "                     theory): 'theory' answers provable\n"
          "                     and periodic accesses analytically\n"
          "                     and steps the rest on the event\n"
          "                     stepper; 'sim' steps every cycle of\n"
          "                     the oracle; 'audit' runs both on\n"
          "                     every scenario, cross-checks them\n"
          "                     bit for bit, and exits non-zero on\n"
          "                     any divergence\n"
          "  --threads N        worker threads (0 = all cores;\n"
          "                     clamped to the hardware)\n"
          "  --shard I/N        run only the i-th (0-based) of N\n"
          "                     deterministic disjoint job slices;\n"
          "                     merge shard outputs with cfva_merge\n"
          "  --csv FILE         per-scenario CSV ('-' = stdout)\n"
          "  --json FILE        per-scenario JSON ('-' = stdout)\n"
          "  --no-summary       skip the summary table\n"
          "  --help\n";
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
    sim::ShardSpec shard;
    TierPolicy tier = TierPolicy::TheoryFirst;
    std::string csvPath;
    std::string jsonPath;
    bool summary = true;
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
            o.ts = strictU64List("--t", need(i, "--t"));
        } else if (a == "--lambda") {
            o.lambdas = strictU64List("--lambda", need(i, "--lambda"));
        } else if (a == "--m") {
            o.ms = strictU64List("--m", need(i, "--m"));
        } else if (a == "--tunes") {
            o.tunes = strictU64List("--tunes", need(i, "--tunes"));
        } else if (a == "--families") {
            o.families =
                parseRange(need(i, "--families"), "--families");
        } else if (a == "--sigmas") {
            o.sigmas = strictU64List("--sigmas", need(i, "--sigmas"));
        } else if (a == "--strides") {
            o.strides =
                strictU64List("--strides", need(i, "--strides"));
        } else if (a == "--lengths") {
            o.lengths =
                strictU64List("--lengths", need(i, "--lengths"));
        } else if (a == "--starts") {
            o.starts = strictU64List("--starts", need(i, "--starts"));
        } else if (a == "--random-starts") {
            o.randomStarts = parseU32(need(i, "--random-starts"),
                                      "--random-starts");
        } else if (a == "--ports") {
            o.ports = strictU64List("--ports", need(i, "--ports"));
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
        } else if (a == "--tier") {
            o.tier = parseTier(need(i, "--tier"));
        } else if (a == "--threads") {
            o.threads = parseU32(need(i, "--threads"),
                                 "--threads");
        } else if (a == "--shard") {
            o.shard = parseShard(need(i, "--shard"));
        } else if (a == "--csv") {
            o.csvPath = need(i, "--csv");
        } else if (a == "--json") {
            o.jsonPath = need(i, "--json");
        } else if (a == "--no-summary") {
            o.summary = false;
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
         << " multiport, " << stats.fallbackDynamic
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

/** Prints the theory tier's collapse/memo counters of a run;
 *  silent under the sim tier (the oracle has no fast path). */
void
printFastPathStats(std::ostream &info, TierPolicy tier,
                   const sim::SweepRunStats &stats)
{
    if (tier == TierPolicy::SimulateAlways)
        return;
    info << "fast path: " << stats.collapseHits
         << " steady-state collapses ("
         << stats.collapsePrefixCycles
         << " prefix cycles stepped), " << stats.memoHits
         << " memo hits / " << stats.memoMisses << " misses, "
         << stats.steppedCycles
         << " cycles stepped without a jump\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const sim::ScenarioGrid grid = buildGrid(o);

    if (!o.csvPath.empty() && !o.jsonPath.empty()
        && sim::sameFile(o.csvPath, o.jsonPath)) {
        cfva_fatal("--csv ", o.csvPath, " and --json ", o.jsonPath,
                   " name the same output");
    }
    // Keep stdout clean for machine-readable output when a data
    // sink targets it: "-", or another name of the file stdout is
    // redirected to.
    const auto aliasesStdout = [](const std::string &path) {
        return !path.empty() && sim::sameFile(path, "-");
    };
    const bool stdoutIsSink =
        aliasesStdout(o.csvPath) || aliasesStdout(o.jsonPath);
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
    info << "tier: " << to_string(o.tier) << "\n";

    sim::SweepOptions opts;
    opts.threads = o.threads;
    opts.shard = o.shard;
    opts.tier = o.tier;

    // Outcomes flow straight through the CSV/JSON sinks and the
    // summary accumulator in job order; nothing is materialized.
    std::ofstream csvFile, jsonFile;
    std::optional<sim::CsvStreamSink> csvSink;
    std::optional<sim::JsonStreamSink> jsonSink;
    std::vector<sim::SweepSink *> sinks;
    if (!o.csvPath.empty()) {
        csvSink.emplace(sim::openOutput(o.csvPath, csvFile));
        sinks.push_back(&*csvSink);
    }
    if (!o.jsonPath.empty()) {
        jsonSink.emplace(sim::openOutput(o.jsonPath, jsonFile));
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
    if (!o.csvPath.empty())
        sim::closeOutput(o.csvPath, csvFile);
    if (!o.jsonPath.empty())
        sim::closeOutput(o.jsonPath, jsonFile);

    if (o.summary) {
        info << stats.jobs << " scenarios in " << fixed(secs, 3)
             << " s ("
             << fixed(static_cast<double>(stats.jobs) / secs, 0)
             << " scenarios/s, peak " << stats.peakPendingOutcomes
             << " outcomes in flight, window " << stats.pendingWindow
             << ")\n";
        summary.summaryTable().print(info, "Sweep summary");
        if (wantsWorkloadSummary(grid))
            summary.workloadTable().print(info, "Workload summary");
        info << summary.conflictFreeJobs() << " of " << summary.jobs()
             << " scenarios conflict free\n";
        info << "backend cache: " << stats.backendCacheHits
             << " hits / " << stats.backendCacheMisses << " misses\n";
        printFastPathStats(info, o.tier, stats);
        printTierStats(info, o.tier, stats);
    }
    if (!info.flush()) {
        cfva_fatal("writing the summary to ",
                   stdoutIsSink ? "stderr" : "stdout", " failed");
    }
    return stats.tierAuditDivergences == 0 ? 0 : 1;
}
