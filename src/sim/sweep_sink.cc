#include "sim/sweep_sink.h"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstring>
#include <limits>
#include <ostream>
#include <string_view>

#include "common/logging.h"

namespace cfva::sim {

namespace {

/** A value printed with Digits decimals, the digits
 *  std::fixed << std::setprecision(Digits) prints. */
template <int Digits>
struct Fixed
{
    double value;
};

/**
 * Builds one CSV/JSON row in a sink's reused buffer, then writes it
 * with one os.write.  The buffer only grows — its size is capacity,
 * the row ends at the cursor — so once it has fit the longest row,
 * each field costs a bounds check and a copy.  Integers go through
 * std::to_chars, Fixed values through std::to_chars in fixed
 * notation.
 */
class RowAppender
{
  public:
    explicit RowAppender(std::string &buf)
        : buf_(buf), cur_(buf.data()), end_(buf.data() + buf.size())
    {
    }

    /** Appends every part in order. */
    template <typename... Parts>
    RowAppender &
    operator()(const Parts &...parts)
    {
        (put(parts), ...);
        return *this;
    }

    void
    writeTo(std::ostream &os) const
    {
        os.write(buf_.data(), cur_ - buf_.data());
    }

  private:
    void
    put(std::string_view s)
    {
        reserve(s.size());
        std::memcpy(cur_, s.data(), s.size());
        cur_ += s.size();
    }

    void
    put(char c)
    {
        reserve(1);
        *cur_++ = c;
    }

    template <std::unsigned_integral T>
    void
    put(T v)
    {
        chars(std::numeric_limits<T>::digits10 + 1, v);
    }

    template <int Digits>
    void
    put(Fixed<Digits> f)
    {
        // Sign, every integer digit of the largest double, the
        // point, and the decimals.
        chars(1 + std::numeric_limits<double>::max_exponent10 + 1 + 1
                  + Digits,
              f.value, std::chars_format::fixed, Digits);
    }

    /** Converts @p v into @p width reserved chars, which hold the
     *  widest value of its kind. */
    template <typename T, typename... Fmt>
    void
    chars(std::size_t width, T v, Fmt... fmt)
    {
        reserve(width);
        cur_ = std::to_chars(cur_, cur_ + width, v, fmt...).ptr;
    }

    void
    reserve(std::size_t n)
    {
        if (static_cast<std::size_t>(end_ - cur_) < n)
            grow(n);
    }

    void
    grow(std::size_t n)
    {
        const std::size_t used =
            static_cast<std::size_t>(cur_ - buf_.data());
        buf_.resize(std::max(2 * buf_.size(), used + n));
        cur_ = buf_.data() + used;
        end_ = buf_.data() + buf_.size();
    }

    std::string &buf_;
    char *cur_;
    char *end_;
};

} // namespace

void
ReportSink::begin(const SweepContext &ctx)
{
    report_.mappingLabels = ctx.mappingLabels;
    report_.portMixLabels = ctx.portMixLabels;
    report_.workloadLabels = ctx.workloadLabels;
    report_.outcomes.reserve(ctx.lastJob - ctx.firstJob);
}

void
ReportSink::consume(const ScenarioOutcome &outcome)
{
    report_.outcomes.push_back(outcome);
}

void
CsvStreamSink::begin(const SweepContext &ctx)
{
    ctx_ = ctx;
    os_ << "job,mapping,stride,family,length,a1,ports,port_mix,"
           "workload,latency,min_latency,stalls,conflict_free,"
           "in_window,efficiency,accesses,decoupled,chained,"
           "chain_saved,chainable,retunes,retune_cycles,tier,"
           "theory_claimed,theory_fallback,fallback_reason\n";
}

void
CsvStreamSink::consume(const ScenarioOutcome &o)
{
    cfva_assert(o.mappingIndex < ctx_.mappingLabels.size()
                    && o.portMixIndex < ctx_.portMixLabels.size()
                    && o.workloadIndex < ctx_.workloadLabels.size(),
                "outcome ", o.index, " references unknown labels");
    RowAppender row(row_);
    row(o.index, ',', ctx_.mappingLabels[o.mappingIndex], ',', o.stride,
        ',', o.family, ',', o.length, ',', o.a1, ',', o.ports, ',',
        ctx_.portMixLabels[o.portMixIndex], ',',
        ctx_.workloadLabels[o.workloadIndex], ',', o.latency, ',',
        o.minLatency, ',', o.stallCycles, ',', o.conflictFree ? '1' : '0',
        ',', o.inWindow ? '1' : '0', ',', Fixed<4>{o.efficiency()}, ',',
        o.accesses, ',', o.decoupledCycles, ',', o.chainedCycles, ',',
        o.chainSaved(), ',', o.chainable ? '1' : '0', ',', o.retunes, ',',
        o.retuneCycles, ',', o.tierLabel(), ',', o.theoryClaimed, ',',
        o.theoryFallback, ',', to_string(o.fallbackReason), '\n')
        .writeTo(os_);
}

void
JsonStreamSink::begin(const SweepContext &ctx)
{
    ctx_ = ctx;
    first_ = true;
    os_ << "[";
}

void
JsonStreamSink::consume(const ScenarioOutcome &o)
{
    cfva_assert(o.mappingIndex < ctx_.mappingLabels.size()
                    && o.portMixIndex < ctx_.portMixLabels.size()
                    && o.workloadIndex < ctx_.workloadLabels.size(),
                "outcome ", o.index, " references unknown labels");
    const auto flag = [](bool b) {
        return std::string_view(b ? "true" : "false");
    };
    RowAppender row(row_);
    row(first_ ? "\n" : ",\n", "  {\"job\": ", o.index,
        ", \"mapping\": \"", ctx_.mappingLabels[o.mappingIndex],
        "\", \"stride\": ", o.stride, ", \"family\": ", o.family,
        ", \"length\": ", o.length, ", \"a1\": ", o.a1, ", \"ports\": ",
        o.ports, ", \"port_mix\": \"", ctx_.portMixLabels[o.portMixIndex],
        "\", \"workload\": \"", ctx_.workloadLabels[o.workloadIndex],
        "\", \"latency\": ", o.latency, ", \"min_latency\": ",
        o.minLatency, ", \"stalls\": ", o.stallCycles,
        ", \"conflict_free\": ", flag(o.conflictFree),
        ", \"in_window\": ", flag(o.inWindow), ", \"efficiency\": ",
        Fixed<6>{o.efficiency()}, ", \"accesses\": ", o.accesses,
        ", \"decoupled\": ", o.decoupledCycles, ", \"chained\": ",
        o.chainedCycles, ", \"chain_saved\": ", o.chainSaved(),
        ", \"chainable\": ", flag(o.chainable), ", \"retunes\": ",
        o.retunes, ", \"retune_cycles\": ", o.retuneCycles,
        ", \"tier\": \"", o.tierLabel(), "\", \"theory_claimed\": ",
        o.theoryClaimed, ", \"theory_fallback\": ", o.theoryFallback,
        ", \"fallback_reason\": \"", to_string(o.fallbackReason), "\"}")
        .writeTo(os_);
    first_ = false;
}

void
JsonStreamSink::end()
{
    os_ << "\n]\n";
}

void
SummarySink::begin(const SweepContext &ctx)
{
    rows_.assign(ctx.mappingLabels.size(), MappingSummary{});
    effSum_.assign(ctx.mappingLabels.size(), 0.0);
    for (std::size_t i = 0; i < ctx.mappingLabels.size(); ++i)
        rows_[i].label = ctx.mappingLabels[i];
    workloadRows_.assign(ctx.workloadLabels.size(),
                         WorkloadSummary{});
    for (std::size_t i = 0; i < ctx.workloadLabels.size(); ++i)
        workloadRows_[i].label = ctx.workloadLabels[i];
    jobs_ = 0;
    conflictFree_ = 0;
    totalLatency_ = 0;
}

void
SummarySink::consume(const ScenarioOutcome &o)
{
    cfva_assert(o.mappingIndex < rows_.size(),
                "outcome references unknown mapping ", o.mappingIndex);
    cfva_assert(o.workloadIndex < workloadRows_.size(),
                "outcome references unknown workload ",
                o.workloadIndex);
    auto &r = rows_[o.mappingIndex];
    ++r.jobs;
    r.conflictFree += o.conflictFree ? 1 : 0;
    r.totalLatency += o.latency;
    r.totalMinLatency += o.minLatency;
    r.totalStalls += o.stallCycles;
    r.theoryClaimed += o.theoryClaimed;
    r.theoryFallback += o.theoryFallback;
    effSum_[o.mappingIndex] += o.efficiency();
    auto &w = workloadRows_[o.workloadIndex];
    ++w.jobs;
    w.accesses += o.accesses;
    w.conflictFree += o.conflictFree ? 1 : 0;
    w.totalLatency += o.latency;
    w.totalDecoupled += o.decoupledCycles;
    w.totalChained += o.chainedCycles;
    w.chainableJobs += o.chainable ? 1 : 0;
    w.totalRetunes += o.retunes;
    w.totalRetuneCycles += o.retuneCycles;
    ++jobs_;
    conflictFree_ += o.conflictFree ? 1 : 0;
    totalLatency_ += o.latency;
}

std::vector<MappingSummary>
SummarySink::perMapping() const
{
    std::vector<MappingSummary> rows = rows_;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        rows[i].meanEfficiency =
            rows[i].jobs
                ? effSum_[i] / static_cast<double>(rows[i].jobs)
                : 0.0;
    }
    return rows;
}

TextTable
SummarySink::summaryTable() const
{
    TextTable t({"mapping", "jobs", "conflict-free", "total latency",
                 "total stalls", "mean efficiency", "theory hits"});
    for (const auto &r : perMapping()) {
        t.row(r.label, r.jobs, ratio(r.conflictFree, r.jobs),
              r.totalLatency, r.totalStalls,
              fixed(r.meanEfficiency, 4),
              ratio(r.theoryClaimed,
                    r.theoryClaimed + r.theoryFallback));
    }
    return t;
}

TextTable
SummarySink::workloadTable() const
{
    TextTable t({"workload", "jobs", "accesses", "conflict-free",
                 "total latency", "chainable", "chain saved",
                 "retunes", "retune cycles"});
    for (const auto &r : workloadRows_) {
        t.row(r.label, r.jobs, r.accesses,
              ratio(r.conflictFree, r.jobs), r.totalLatency,
              ratio(r.chainableJobs, r.jobs), r.totalChainSaved(),
              r.totalRetunes, r.totalRetuneCycles);
    }
    return t;
}

void
TeeSink::begin(const SweepContext &ctx)
{
    for (SweepSink *s : sinks_)
        s->begin(ctx);
}

void
TeeSink::consume(const ScenarioOutcome &outcome)
{
    for (SweepSink *s : sinks_)
        s->consume(outcome);
}

void
TeeSink::end()
{
    for (SweepSink *s : sinks_)
        s->end();
}

} // namespace cfva::sim
