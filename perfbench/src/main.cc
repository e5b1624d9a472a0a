/**
 * @file
 * cfva_perfbench: runs one named workload for a fixed time and prints
 * one JSON line of metrics.
 *
 *   cfva_perfbench --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--trace-out FILE]
 *
 * Closed loop, one sweep at a time.  Every repetition expands the
 * workload's grids, runs them on sim::SweepEngine under the theory
 * tier, and emits the CSV to a discarding stream; repetitions
 * alternate between 1 and 2 worker threads until --seconds have
 * passed (at least kMinRounds of each), each followed by one timed
 * set-up.  Afterwards every outcome of every repetition is checked
 * against the stepped oracle.  --trace 1 adds traced replays at 1
 * thread (for half as long again) and reports per-layer metrics
 * instead of the end-to-end ones.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include <sys/resource.h>

#include "perfbench.h"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/** Rounds (one 1-thread and one 2-thread repetition each) a run makes
 *  however long they take, so every quantile rests on at least four
 *  samples. */
constexpr unsigned kMinRounds = 4;

/** No round starts after this many seconds of timing, so a slow
 *  program still finishes well inside the benchmark's time limit. */
constexpr double kMaxTimingS = 100.0;

/**
 * Throughput comes from the 10th-percentile repetition time.  On a
 * shared host, neighbours only ever add time, in bursts shorter than
 * a run; the fastest tenth of the repetitions tracks the program's
 * own speed far more steadily than the median does.
 */
constexpr double kTimingQuantile = 0.1;


struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "cfva_perfbench: " << why
              << "\nusage: cfva_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE]\n"
                 "workloads:";
    for (const auto &n : workloadNames())
        std::cerr << ' ' << n;
    std::cerr << '\n';
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string v = argv[++i];
        try {
            std::size_t used = 0;
            if (flag == "--workload") {
                a.workload = v;
                used = v.size();
            } else if (flag == "--seed") {
                a.seed = std::stoull(v, &used, 0);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(v, &used);
            } else if (flag == "--trace") {
                a.trace = std::stoi(v, &used) != 0;
            } else if (flag == "--trace-out") {
                a.traceOut = v;
                used = v.size();
            } else {
                usage("unknown flag " + flag);
            }
            if (used != v.size() || v.empty() || v[0] == '-')
                throw std::invalid_argument(v);
        } catch (const std::exception &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0 && a.seconds <= 600))
        usage("--seconds must be in (0, 600]");
    return a;
}

/** The @p q quantile of @p v, interpolating between order
 *  statistics (the convention of numpy's default). */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
since(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/**
 * The outcomes of every timed repetition, kept compactly: the first
 * repetition in full, and for each later one only the rows whose
 * modelled fields differ from it (none, for a deterministic
 * program).  The oracle runs once timing is over, so its memory never
 * shows in the peak RSS.
 */
class RepLog
{
  public:
    void
    add(TimedRep &&rep)
    {
        if (reps_++ == 0) {
            base_ = std::move(rep.outcomes);
            return;
        }
        std::vector<Deviant> dev;
        for (std::size_t g = 0; g < base_.size(); ++g) {
            const Outcomes &got = rep.outcomes[g];
            if (got.size() != base_[g].size()) {
                dev.push_back({g, kWholeGrid, {}});
                continue;
            }
            for (std::size_t i = 0; i < got.size(); ++i) {
                if (!sameModelled(got[i], base_[g][i]))
                    dev.push_back({g, i, got[i]});
            }
        }
        deviants_.push_back(std::move(dev));
    }

    /** Scenarios of all repetitions that differ from @p oracle.  A
     *  repetition whose report for a grid has the wrong length fails
     *  on every scenario of that grid. */
    std::uint64_t
    failures(const std::vector<Outcomes> &oracle) const
    {
        std::vector<std::uint64_t> gridBad(base_.size());
        std::vector<std::vector<char>> rowBad(base_.size());
        std::uint64_t perRep = 0;
        for (std::size_t g = 0; g < base_.size(); ++g) {
            gridBad[g] = countMismatches(base_[g], oracle[g]);
            perRep += gridBad[g];
            rowBad[g].resize(base_[g].size());
            for (std::size_t i = 0;
                 i < base_[g].size() && i < oracle[g].size(); ++i)
                rowBad[g][i] = !sameModelled(base_[g][i], oracle[g][i]);
        }
        std::uint64_t total = perRep;
        for (const auto &dev : deviants_) {
            std::uint64_t f = perRep;
            for (const Deviant &d : dev) {
                if (d.index == kWholeGrid) {
                    f += oracle[d.grid].size() - gridBad[d.grid];
                    continue;
                }
                f -= rowBad[d.grid][d.index];
                f += sameModelled(d.outcome, oracle[d.grid][d.index])
                         ? 0
                         : 1;
            }
            total += f;
        }
        return total;
    }

  private:
    static constexpr std::size_t kWholeGrid = ~std::size_t{0};

    struct Deviant
    {
        std::size_t grid;
        std::size_t index; //!< kWholeGrid: the report's length is off
        ScenarioOutcome outcome;
    };

    std::size_t reps_ = 0;
    std::vector<Outcomes> base_;
    std::vector<std::vector<Deviant>> deviants_;
};

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    const std::optional<Workload> w =
        makeWorkload(args.workload, args.seed);
    if (!w)
        usage("unknown workload " + args.workload);
    const std::size_t jobs = w->jobs();

    // The timed loop.  Rounds alternate which thread count goes
    // first so slow drift in the machine hits both alike.  One set-up
    // (build, expand, construct the units) is timed right after each
    // repetition, while the caches hold the sweep's data: a sweep
    // pays its set-up cold.  Warm set-ups repeated back to back
    // measure how much of the last-level cache the neighbours leave,
    // and varied by half from process to process.
    std::vector<double> setups;
    std::vector<double> wall1;
    std::vector<double> wall2;
    RepLog log;
    EngineRun engine1; // a 1-thread run, for the trace checks
    std::uint64_t attempted = 0;
    const auto timingStart = Clock::now();
    for (unsigned round = 0;
         round < kMinRounds
         || (since(timingStart) < args.seconds
             && since(timingStart) < kMaxTimingS);
         ++round) {
        for (unsigned k = 0; k < 2; ++k) {
            const unsigned threads = (round + k) % 2 ? 2 : 1;
            TimedRep rep = runTimed(*w, threads);
            (threads == 1 ? wall1 : wall2).push_back(rep.seconds);
            attempted += jobs;
            if (threads == 1 && engine1.stats.empty()) {
                engine1.outcomes = rep.outcomes;
                engine1.stats = rep.stats;
            }
            log.add(std::move(rep));
            setups.push_back(timeSetup(args.workload, args.seed));
        }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peakRssMiB = static_cast<double>(ru.ru_maxrss) / 1024.0;
    const double fast1 = quantile(wall1, kTimingQuantile);
    const double fast2 = quantile(wall2, kTimingQuantile);

    std::vector<Metric> metrics;
    std::vector<std::string> problems;
    if (args.trace) {
        // Traced passes for half the timed length (at least one); each
        // is checked, each metric is the median over the passes, and
        // the last pass's spans are written.  Medians on both sides:
        // a pass is set against the typical untraced repetition.
        const double untraced = quantile(wall1, 0.5);
        std::vector<std::vector<Metric>> passes;
        TraceResult tr;
        const auto traceStart = Clock::now();
        do {
            tr = traceGrids(w->grids);
            for (std::string &p : checkTrace(tr, engine1)) {
                if (std::find(problems.begin(), problems.end(), p)
                    == problems.end())
                    problems.push_back(std::move(p));
            }
            passes.push_back(layerMetrics(tr, untraced));
        } while (since(traceStart) < args.seconds / 2);
        metrics = passes.front();
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            std::vector<double> v;
            for (const auto &pass : passes)
                v.push_back(pass[i].value);
            metrics[i].value = quantile(v, 0.5);
        }
        // Two-thread throughput is a per-layer figure: how much of the
        // job the serial phases leave to parallelize.  On a shared
        // host it swings with whether a second core is free, too far
        // for an end-to-end bound.
        metrics.push_back({"sim.scenarios_per_s_2t",
                           static_cast<double>(jobs) / fast2,
                           "scenarios/s"});
        if (!args.traceOut.empty()) {
            std::ofstream os(args.traceOut);
            writeSpans(tr, os);
            if (!os)
                problems.push_back("cannot write " + args.traceOut);
        }
    } else {
        metrics = {
            {"scenarios_per_s", static_cast<double>(jobs) / fast1,
             "scenarios/s"},
            {"setup_s", quantile(setups, 0.5), "s"},
            {"peak_rss_mb", peakRssMiB, "MiB"},
        };
    }

    // Correctness: every repetition against the stepped oracle, and
    // the oracle itself against the committed digest at the default
    // seed.
    const std::vector<Outcomes> oracle = runOracle(*w);
    std::uint64_t failed = log.failures(oracle);
    const std::uint64_t digest = modelledDigest(oracle);
    std::fprintf(stderr, "%s: %zu jobs, %zu + %zu reps, oracle digest "
                 "0x%016llx\n",
                 args.workload.c_str(), jobs, wall1.size(),
                 wall2.size(), static_cast<unsigned long long>(digest));
    if (args.seed == kDefaultSeed
        && digest != referenceDigest(args.workload)) {
        problems.push_back("the stepped oracle no longer matches the "
                           "committed reference digest");
        failed = attempted;
    }
    for (const auto *walls : {&wall1, &wall2}) {
        std::fprintf(stderr, "  %dt rep seconds:", walls == &wall1 ? 1 : 2);
        for (double s : *walls)
            std::fprintf(stderr, " %.4f", s);
        std::fprintf(stderr, "\n");
    }
    for (const auto &p : problems)
        std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
    for (const Metric &m : metrics)
        std::fprintf(stderr, "  %-32s %16.6g %s\n", m.name.c_str(),
                     m.value, m.unit.c_str());

    const bool correct = failed == 0 && problems.empty();
    printJson(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
