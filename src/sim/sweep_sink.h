/**
 * @file
 * Streaming consumers for sweep outcomes.
 *
 * The engine's original contract was "materialize then emit": every
 * ScenarioOutcome of a grid lived in one in-memory SweepReport
 * before a byte of CSV/JSON left the process, so peak memory grew
 * with the job count.  A SweepSink inverts that: the engine feeds
 * outcomes to the sink in strictly increasing job-index order as
 * workers finish them (an ordered flush queue reorders the
 * work-stealing completions), and the sink formats or aggregates
 * each one immediately.  Peak memory in streaming mode is bounded
 * by the reorder window — O(threads x grain) — not by the grid.
 *
 *     ScenarioGrid ──expand──▶ jobs ──workers──▶ ordered flush ──▶ SweepSink
 *                                                               ├─ ReportSink   (SweepReport)
 *                                                               ├─ CsvStreamSink (byte-identical to writeCsv)
 *                                                               ├─ JsonStreamSink(byte-identical to writeJson)
 *                                                               ├─ SummarySink  (per-mapping aggregates)
 *                                                               └─ TeeSink      (fan-out)
 *
 * Byte-identity is by construction, not by parallel maintenance:
 * SweepReport::writeCsv/writeJson replay the materialized outcomes
 * through the same sinks, so a streamed file and a materialized one
 * cannot drift apart.  Sinks need not be thread-safe — the engine
 * serializes all begin/consume/end calls.
 */

#ifndef CFVA_SIM_SWEEP_SINK_H
#define CFVA_SIM_SWEEP_SINK_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

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

    /**
     * Jobs known to the producer: the whole (unsharded) grid when
     * the engine streams live, the replayed outcome count when a
     * materialized report replays through SweepReport::stream (a
     * shard report cannot know the grid total).  Sinks must treat
     * it as informational — in particular, outcome indices of a
     * shard replay may exceed it.
     */
    std::size_t totalJobs = 0;

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

/**
 * Streams the per-scenario CSV table; byte-identical to
 * SweepReport::writeCsv at any thread count and shard split.
 */
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

/**
 * Streams the per-scenario JSON array; byte-identical to
 * SweepReport::writeJson at any thread count and shard split.
 */
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

/**
 * Accumulates the per-mapping aggregates (and grid totals) without
 * retaining a single outcome — the O(1)-memory replacement for
 * materializing a report just to print its summary table.
 */
class SummarySink final : public SweepSink
{
  public:
    void begin(const SweepContext &ctx) override;
    void consume(const ScenarioOutcome &outcome) override;

    std::size_t jobs() const { return jobs_; }
    std::uint64_t conflictFreeJobs() const { return conflictFree_; }
    Cycle totalLatency() const { return totalLatency_; }

    /** One row per mapping, same math as SweepReport::perMapping. */
    std::vector<MappingSummary> perMapping() const;

    /** One row per workload, same math as
     *  SweepReport::perWorkload. */
    std::vector<WorkloadSummary> perWorkload() const
    {
        return workloadRows_;
    }

    /** Same rendering as SweepReport::summaryTable. */
    TextTable summaryTable() const;

    /** Same rendering as workloadSummaryTable(perWorkload()). */
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
