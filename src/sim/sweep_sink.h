/**
 * @file
 * Streaming consumers for sweep outcomes.
 *
 * The engine feeds outcomes to a SweepSink in strictly increasing
 * job-index order as workers finish them (an ordered flush queue
 * reorders the chunk completions), and the sink formats or
 * aggregates each one immediately.  Apart from ReportSink, nothing
 * holds more outcomes than the ones in flight: O(threads x grain),
 * not O(jobs).
 *
 *     ScenarioGrid ──expand──▶ jobs ──workers──▶ ordered flush ──▶ SweepSink
 *                                                               ├─ ReportSink    (SweepReport)
 *                                                               ├─ CsvStreamSink (per-scenario CSV)
 *                                                               ├─ JsonStreamSink(per-scenario JSON)
 *                                                               ├─ SummarySink   (mapping and workload sums)
 *                                                               └─ TeeSink       (fan-out)
 *
 * SweepReport::writeCsv/writeJson replay materialized outcomes
 * through the same CSV/JSON sinks, so a report written either way
 * has the same bytes.  Sinks need not be thread-safe — the engine
 * serializes all begin/consume/end calls.
 */

#ifndef CFVA_SIM_SWEEP_SINK_H
#define CFVA_SIM_SWEEP_SINK_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.h"
#include "sim/sweep_engine.h"

namespace cfva::sim {

/** What a sink learns before the first outcome arrives. */
struct SweepContext
{
    /** describe() of each grid mapping, indexed by mappingIndex. */
    std::vector<std::string> mappingLabels;

    /** label() of each grid port mix, indexed by portMixIndex. */
    std::vector<std::string> portMixLabels;

    /** label() of each grid workload, indexed by workloadIndex. */
    std::vector<std::string> workloadLabels;

    /** The producer's job-index range [firstJob, lastJob) — the
     *  shard slice when the engine streams live, the replayed
     *  index span for a report replay. */
    std::size_t firstJob = 0;
    std::size_t lastJob = 0;
};

/**
 * Consumer of a sweep's outcomes.  The engine calls begin() once,
 * consume() once per outcome in strictly increasing index order,
 * then end() once.  Calls are serialized (never concurrent), but
 * may come from different worker threads.
 */
class SweepSink
{
  public:
    virtual ~SweepSink() = default;

    virtual void
    begin(const SweepContext &)
    {
    }

    virtual void consume(const ScenarioOutcome &outcome) = 0;

    virtual void
    end()
    {
    }
};

/** Materializes the classic SweepReport (labels + ordered outcomes). */
class ReportSink final : public SweepSink
{
  public:
    void begin(const SweepContext &ctx) override;
    void consume(const ScenarioOutcome &outcome) override;

    /** The accumulated report; call after the run returns. */
    SweepReport take() { return std::move(report_); }

  private:
    SweepReport report_;
};

/** Streams the per-scenario CSV table (26 columns). */
class CsvStreamSink final : public SweepSink
{
  public:
    explicit CsvStreamSink(std::ostream &os) : os_(os) {}

    void begin(const SweepContext &ctx) override;
    void consume(const ScenarioOutcome &outcome) override;

  private:
    std::ostream &os_;
    SweepContext ctx_;
    std::string row_; //!< reused row buffer, one os.write per row
};

/** Streams the per-scenario JSON array. */
class JsonStreamSink final : public SweepSink
{
  public:
    explicit JsonStreamSink(std::ostream &os) : os_(os) {}

    void begin(const SweepContext &ctx) override;
    void consume(const ScenarioOutcome &outcome) override;
    void end() override;

  private:
    std::ostream &os_;
    SweepContext ctx_;
    std::string row_; //!< reused row buffer, one os.write per row
    bool first_ = true;
};

/** Aggregate row for one mapping configuration of the grid. */
struct MappingSummary
{
    std::string label;
    std::uint64_t jobs = 0;
    std::uint64_t conflictFree = 0;
    Cycle totalLatency = 0;
    Cycle totalMinLatency = 0;
    std::uint64_t totalStalls = 0;

    /** Theory-tier attribution summed over the mapping's jobs. */
    std::uint64_t theoryClaimed = 0;
    std::uint64_t theoryFallback = 0;

    /** Mean of per-access efficiencies. */
    double meanEfficiency = 0.0;
};

/** Aggregate row for one workload of the grid. */
struct WorkloadSummary
{
    std::string label;
    std::uint64_t jobs = 0;
    std::uint64_t accesses = 0;      //!< memory accesses executed
    std::uint64_t conflictFree = 0;  //!< fully conflict-free jobs
    Cycle totalLatency = 0;
    Cycle totalDecoupled = 0;
    Cycle totalChained = 0;
    std::uint64_t chainableJobs = 0;
    std::uint64_t totalRetunes = 0;
    Cycle totalRetuneCycles = 0;

    /** Total cycles chaining saved across the workload's jobs. */
    Cycle
    totalChainSaved() const
    {
        return totalDecoupled - totalChained;
    }
};

/**
 * Accumulates the per-mapping and per-workload aggregates and the
 * grid totals without retaining a single outcome.  Replay a
 * materialized report through it (SweepReport::stream) to
 * aggregate that report.
 */
class SummarySink final : public SweepSink
{
  public:
    void begin(const SweepContext &ctx) override;
    void consume(const ScenarioOutcome &outcome) override;

    std::size_t jobs() const { return jobs_; }
    std::uint64_t conflictFreeJobs() const { return conflictFree_; }
    Cycle totalLatency() const { return totalLatency_; }

    /** One row per grid mapping, in mappingIndex order. */
    std::vector<MappingSummary> perMapping() const;

    /** One row per grid workload, in workloadIndex order. */
    std::vector<WorkloadSummary> perWorkload() const
    {
        return workloadRows_;
    }

    /** perMapping() as a table. */
    TextTable summaryTable() const;

    /** perWorkload() as a table. */
    TextTable workloadTable() const;

  private:
    std::vector<MappingSummary> rows_;
    std::vector<double> effSum_;
    std::vector<WorkloadSummary> workloadRows_;
    std::size_t jobs_ = 0;
    std::uint64_t conflictFree_ = 0;
    Cycle totalLatency_ = 0;
};

/** Fans one outcome stream out to several sinks, in order. */
class TeeSink final : public SweepSink
{
  public:
    explicit TeeSink(std::vector<SweepSink *> sinks)
        : sinks_(std::move(sinks))
    {
    }

    void begin(const SweepContext &ctx) override;
    void consume(const ScenarioOutcome &outcome) override;
    void end() override;

  private:
    std::vector<SweepSink *> sinks_;
};

} // namespace cfva::sim

#endif // CFVA_SIM_SWEEP_SINK_H
