#include <chrono>
#include <memory>
#include <ostream>

#include "core/access_unit.h"
#include "perfbench.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

cfva::sim::SweepOptions
timedOptions(unsigned threads)
{
    // The only settings the timed path makes.  Everything else stays
    // at the library default, so a change of default shows up here
    // without editing the benchmark.
    cfva::sim::SweepOptions o;
    o.threads = threads;
    o.tier = cfva::TierPolicy::TheoryFirst;
    return o;
}

CountingBuf::CountingBuf()
{
    setp(buf_, buf_ + sizeof buf_);
}

std::uint64_t
CountingBuf::bytes() const
{
    return flushed_ + static_cast<std::uint64_t>(pptr() - pbase());
}

CountingBuf::int_type
CountingBuf::overflow(int_type ch)
{
    flushed_ += static_cast<std::uint64_t>(pptr() - pbase());
    setp(buf_, buf_ + sizeof buf_);
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
        *pptr() = traits_type::to_char_type(ch);
        pbump(1);
    }
    return traits_type::not_eof(ch);
}

std::streamsize
CountingBuf::xsputn(const char *s, std::streamsize n)
{
    // Copy into the buffer like a real sink would, wrapping when it
    // fills, so the emit cost keeps its memory traffic.
    std::streamsize left = n;
    while (left > 0) {
        if (pptr() == epptr())
            overflow(traits_type::eof());
        const std::streamsize room = epptr() - pptr();
        const std::streamsize take = left < room ? left : room;
        traits_type::copy(pptr(), s, static_cast<std::size_t>(take));
        pbump(static_cast<int>(take));
        s += take;
        left -= take;
    }
    return n;
}

TimedRep
runTimed(const Workload &w, unsigned threads)
{
    const cfva::sim::SweepEngine engine(timedOptions(threads));
    CountingBuf buf;
    std::ostream csv(&buf);
    TimedRep rep;
    rep.outcomes.reserve(w.grids.size());
    rep.stats.reserve(w.grids.size());

    const auto start = Clock::now();
    for (const ScenarioGrid &grid : w.grids) {
        SweepRunStats stats;
        cfva::sim::SweepReport report = engine.run(grid, &stats);
        report.writeCsv(csv);
        rep.outcomes.push_back(std::move(report.outcomes));
        rep.stats.push_back(stats);
    }
    csv.flush();
    rep.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    rep.csvBytes = buf.bytes();
    return rep;
}

double
timeSetup(const std::string &name, std::uint64_t seed)
{
    // Destroyed after the clock stops: set-up is what a sweep pays
    // before its first scenario, not its teardown.
    std::vector<std::vector<cfva::sim::Scenario>> jobs;
    std::vector<std::unique_ptr<cfva::VectorAccessUnit>> units;

    const auto start = Clock::now();
    const std::optional<Workload> w = makeWorkload(name, seed);
    for (const ScenarioGrid &grid : w->grids) {
        jobs.push_back(grid.expand());
        for (const auto &cfg : grid.mappings)
            units.push_back(
                std::make_unique<cfva::VectorAccessUnit>(cfg));
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace perfbench
