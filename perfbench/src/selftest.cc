/**
 * @file
 * Self-tests of cfva_perfbench: pinned job counts, seeds that
 * move only the random starts, the oracle comparison catching a
 * corrupted outcome or reference, and the trace consistency rules
 * holding on real replays and firing on tampered ones.
 *
 * Run through `python3 perfbench/run.py --selftest` or ctest in the
 * benchmark's build directory.
 */

#include <cstdio>
#include <string>

#include "perfbench.h"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

/** Jobs are pinned, and a held-out seed moves only the starts. */
void
testSeeds()
{
    for (const std::string &name : workloadNames()) {
        const Workload a = *makeWorkload(name, kDefaultSeed);
        const Workload b = *makeWorkload(name, 7);
        check(a.jobs() == pinnedJobs(name) && b.jobs() == a.jobs(),
              name + ": job count is not the pinned one");
        bool startMoved = false;
        for (std::size_t g = 0; g < a.grids.size(); ++g) {
            auto ja = a.grids[g].expand();
            auto jb = b.grids[g].expand();
            check(ja.size() == a.grids[g].jobCount()
                      && jb.size() == ja.size(),
                  name + ": expand() disagrees with jobCount()");
            for (std::size_t i = 0; i < ja.size() && i < jb.size();
                 ++i) {
                startMoved = startMoved || ja[i].a1 != jb[i].a1;
                jb[i].a1 = ja[i].a1;
                check(ja[i] == jb[i],
                      name + ": a seed changed more than a start");
            }
        }
        check(startMoved, name + ": the seed moved no start");
    }
    check(!makeWorkload("nope", 1), "an unknown name built a workload");
}

/** A small copy of @p name: one start per combination. */
Workload
small(const std::string &name)
{
    Workload w = *makeWorkload(name, kDefaultSeed);
    for (auto &g : w.grids)
        g.randomStarts = g.starts.empty() ? 1 : 0;
    return w;
}

/** The comparison counts corrupted outcomes and references, and
 *  ignores the attribution columns. */
void
testOracleCheck()
{
    const Workload w = small("broad");
    const TimedRep rep = runTimed(w, 1);
    const std::vector<Outcomes> oracle = runOracle(w);
    const Outcomes &got = rep.outcomes[0];
    const Outcomes &ref = oracle[0];
    check(countMismatches(got, ref) == 0,
          "the theory tier disagrees with the oracle on broad");

    Outcomes bad = got;
    bad[5].latency += 1;
    bad[9].chainable = !bad[9].chainable;
    check(countMismatches(bad, ref) == 2,
          "corrupted outcomes were not counted");

    Outcomes badRef = ref;
    badRef[7].stallCycles += 1;
    check(countMismatches(got, badRef) == 1,
          "a corrupted reference was not counted");

    Outcomes attributed = got;
    attributed[3].theoryClaimed += 1;
    attributed[3].fallbackReason = cfva::FallbackReason::Unproven;
    check(countMismatches(attributed, ref) == 0,
          "attribution columns were compared");

    Outcomes shortRun = got;
    shortRun.pop_back();
    check(countMismatches(shortRun, ref) == 1,
          "a missing outcome was not counted");

    check(modelledDigest({bad}) != modelledDigest({got})
              && modelledDigest({attributed}) == modelledDigest({got}),
          "the digest does not follow the modelled fields");
}

/** The trace rules hold on real replays and fire when broken. */
void
testTrace()
{
    for (const char *name : {"paper", "broad", "ports"}) {
        const Workload w = small(name);
        const TimedRep rep = runTimed(w, 1);
        const EngineRun run{rep.outcomes, rep.stats};
        const TraceResult tr = traceGrids(w.grids);
        const auto problems = checkTrace(tr, run);
        for (const auto &p : problems)
            std::printf("  %s: %s\n", name, p.c_str());
        check(problems.empty(),
              std::string(name) + ": a real trace breaks a rule");
        check(tr.counts.executedJobs > 0 && tr.counts.accesses > 0,
              std::string(name) + ": the trace did no work");
        check(layerMetrics(tr, 1.0).size() == 31,
              std::string(name) + ": per-layer metric count changed");

        const auto fires = [&](const char *what, auto tamper) {
            TraceResult t = tr;
            EngineRun r = run;
            tamper(t, r);
            check(!checkTrace(t, r).empty(),
                  std::string(name) + ": tampering (" + what
                      + ") went unnoticed");
        };
        fires("claim count", [](TraceResult &t, EngineRun &) {
            ++t.counts.claimed;
        });
        fires("memo lookups", [](TraceResult &t, EngineRun &) {
            ++t.counts.memoLookups;
        });
        fires("missing scenario span", [](TraceResult &t, EngineRun &) {
            for (auto it = t.spans.begin(); it != t.spans.end(); ++it) {
                if (it->name == SpanName::Scenario) {
                    it->name = SpanName::Key;
                    break;
                }
            }
        });
        fires("span past the wall", [](TraceResult &t, EngineRun &) {
            t.wallNs = 0;
        });
        fires("engine outcome", [](TraceResult &, EngineRun &r) {
            r.outcomes[0][0].latency += 1;
        });
        fires("engine stats", [](TraceResult &, EngineRun &r) {
            ++r.stats[0].theoryClaims;
        });
    }
}

} // namespace

int
main()
{
    testSeeds();
    testOracleCheck();
    testTrace();
    std::printf("perfbench selftest: %s (%d failure%s)\n",
                failures ? "FAILED" : "ok", failures,
                failures == 1 ? "" : "s");
    return failures ? 1 : 0;
}
