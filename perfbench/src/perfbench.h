/**
 * @file
 * The cfva benchmark, cfva_perfbench: named workload grids, the timed
 * end-to-end job, the stepped-oracle check, and the traced per-layer
 * replay.  See perfbench/README.md for what each workload and metric
 * is for.
 */

#ifndef CFVA_PERFBENCH_PERFBENCH_H
#define CFVA_PERFBENCH_PERFBENCH_H

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <streambuf>
#include <string>
#include <vector>

#include "memsys/backend_cache.h"
#include "sim/sweep_engine.h"

namespace perfbench {

using cfva::sim::ScenarioGrid;
using cfva::sim::ScenarioOutcome;
using cfva::sim::SweepRunStats;
using Outcomes = std::vector<ScenarioOutcome>;

/** The seed the committed oracle digests were taken at: the
 *  library's own default grid seed. */
inline constexpr std::uint64_t kDefaultSeed = 0x5EEDF00Dull;

// ---------------------------------------------------------------
// Workloads (workloads.cc)
// ---------------------------------------------------------------

/** One named workload: its grids run back to back as one job. */
struct Workload
{
    std::string name;
    std::vector<ScenarioGrid> grids;

    /** Jobs over all grids. */
    std::size_t jobs() const;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Builds workload @p name with its random starts drawn from
 *  @p seed; nullopt for an unknown name. */
std::optional<Workload> makeWorkload(const std::string &name,
                                     std::uint64_t seed);

/** The job count of workload @p name, the same at every seed. */
std::size_t pinnedJobs(const std::string &name);

/** modelledDigest() of the stepped oracle's outcomes over every
 *  grid of workload @p name at kDefaultSeed. */
std::uint64_t referenceDigest(const std::string &name);

// ---------------------------------------------------------------
// Timed path and oracle (timed.cc, oracle.cc)
// ---------------------------------------------------------------

/** The timed path's options: the theory tier at @p threads workers,
 *  every other option at its library default. */
cfva::sim::SweepOptions timedOptions(unsigned threads);

/** The stepped oracle's options: simulation tier, no periodic fast
 *  path, no scenario dedup, all cores. */
cfva::sim::SweepOptions oracleOptions();

/** A streambuf that discards what it is given and counts the bytes:
 *  the CSV is formatted in full but never written anywhere. */
class CountingBuf final : public std::streambuf
{
  public:
    CountingBuf();

    std::uint64_t bytes() const;

  protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char *s, std::streamsize n) override;

  private:
    char buf_[1 << 16];
    std::uint64_t flushed_ = 0;
};

/** One repetition of the timed job over every grid. */
struct TimedRep
{
    double seconds = 0.0;
    std::uint64_t csvBytes = 0;
    std::vector<Outcomes> outcomes;     //!< per grid
    std::vector<SweepRunStats> stats;   //!< per grid
};

/** Expands, runs and CSV-emits every grid of @p w on @p threads
 *  workers; only the returned seconds are the timed part. */
TimedRep runTimed(const Workload &w, unsigned threads);

/** One set-up: builds the workload, expands its grids, and
 *  constructs one VectorAccessUnit per grid mapping.  Returns its
 *  wall seconds. */
double timeSetup(const std::string &name, std::uint64_t seed);

/** Runs every grid of @p w on the stepped oracle (untimed). */
std::vector<Outcomes> runOracle(const Workload &w);

/** True when every identity and modelled field agrees.  The theory
 *  attribution columns (claimed, fallback, reason, audit flag) are
 *  left out: they describe how a row was answered, not the model. */
bool sameModelled(const ScenarioOutcome &a, const ScenarioOutcome &b);

/** Scenarios of @p got whose modelled fields differ from @p ref at
 *  the same position, plus every scenario one side lacks. */
std::uint64_t countMismatches(const Outcomes &got, const Outcomes &ref);

/** FNV-1a digest of the modelled fields of @p grids in order. */
std::uint64_t modelledDigest(const std::vector<Outcomes> &grids);

// ---------------------------------------------------------------
// Traced per-layer replay (trace.cc)
// ---------------------------------------------------------------

/** What a span timed. */
enum class SpanName : std::uint8_t
{
    Mirror,   //!< the engine-mirroring pass over one grid
    Expand,   //!< ScenarioGrid::expand
    Key,      //!< sim::canonicalKey, one job
    Scenario, //!< SweepEngine::runScenario, one executed job
    Emit,     //!< SweepReport::writeCsv
    Probes,   //!< the layer-probe pass over one grid
    Job,      //!< every probe call of one executed job
    Plan,     //!< sim::planPortStream, one port of one access
    Premap,   //!< BitSlicedMapper over one planned stream
    Solve,    //!< ConflictSolver::solve on one conflicted stream
    Execute,  //!< execute/executePorts under TheoryFirst
    Step,     //!< execute/executePorts at the default tier, on an
              //!< access the theory tier declined
};

const char *to_string(SpanName name);

/** One timed call; times are ns since the tracer started. */
struct Span
{
    SpanName name = SpanName::Mirror;
    std::uint32_t parent = 0; //!< index into the span list, or kNoParent
    std::uint64_t job = 0;    //!< workload-wide job id
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
};

/** Counts recorded at the probe boundaries of a traced replay. */
struct LayerCounts
{
    // sim (the mirror pass)
    std::uint64_t grids = 0;
    std::uint64_t jobs = 0;
    std::uint64_t executedJobs = 0; //!< runScenario calls
    std::uint64_t classes = 0;      //!< dedup classes; 0 unkeyed
    bool keyed = false;             //!< the default engine dedups
    std::uint64_t emitBytes = 0;
    std::uint64_t outcomeClaimed = 0;  //!< summed over executed jobs
    std::uint64_t outcomeFallback = 0;
    cfva::BackendCacheStats mirrorCache;
    cfva::FastPathStats mirrorFast;

    // access
    std::uint64_t planCalls = 0;
    std::uint64_t plannedElems = 0;
    std::uint64_t certifiedPlans = 0;

    // mapping
    std::uint64_t premapCalls = 0;
    std::uint64_t premapElems = 0;
    std::uint64_t bitslicedElems = 0;

    // theory
    std::uint64_t accesses = 0;
    std::uint64_t claimed = 0;
    std::uint64_t fallback = 0;
    std::uint64_t fallbackConflicted = 0;
    std::uint64_t fallbackMultiport = 0;
    std::uint64_t fallbackUnproven = 0;
    std::uint64_t fallbackDynamic = 0;
    std::uint64_t solveAttempts = 0;
    std::uint64_t solveSuccesses = 0;
    std::uint64_t memoLookups = 0; //!< solves OutcomeMemo can hold
    cfva::FastPathStats solverFast;

    // memsys
    std::uint64_t steppedAccesses = 0;
    std::uint64_t modelledCycles = 0;
};

/** A traced replay: its spans (kept in memory until written), its
 *  counts, the mirror pass's outcomes, and its wall time. */
struct TraceResult
{
    std::vector<Span> spans;
    LayerCounts counts;
    std::vector<Outcomes> outcomes; //!< per grid, after replays
    std::int64_t wallNs = 0;        //!< on the spans' clock
};

/**
 * Replays the jobs of @p grids at one thread, first mirroring what
 * the engine does (expand, key, runScenario per executed job,
 * replay, emit), then driving each executed job's accesses through
 * each layer's public entry point, one span per call.
 */
TraceResult traceGrids(const std::vector<ScenarioGrid> &grids);

/** The untraced 1-thread run a trace is checked against. */
struct EngineRun
{
    std::vector<Outcomes> outcomes;   //!< per grid
    std::vector<SweepRunStats> stats; //!< per grid
};

/** Every consistency rule @p tr breaks, alone or against @p run;
 *  empty when the trace adds up. */
std::vector<std::string> checkTrace(const TraceResult &tr,
                                    const EngineRun &run);

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The per-layer metrics of @p tr; @p e2eWall1s is the untraced
 *  1-thread wall time of the same job (median). */
std::vector<Metric> layerMetrics(const TraceResult &tr,
                                 double e2eWall1s);

/** Writes one tab-separated line per span. */
void writeSpans(const TraceResult &tr, std::ostream &os);

} // namespace perfbench

#endif // CFVA_PERFBENCH_PERFBENCH_H
