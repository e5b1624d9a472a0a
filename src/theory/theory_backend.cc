#include "theory/theory_backend.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace cfva {

namespace {

/** Lifts the AccessResult of a @p length-element stream into the
 *  P = 1 MultiPortResult the stepped models produce for it.  The
 *  makespan comes from the stream, since the evaluator's result
 *  carries no deliveries to read it from. */
MultiPortResult
wrapSinglePort(AccessResult &&r, std::size_t length)
{
    MultiPortResult out;
    out.makespan = length == 0 ? 0 : r.lastDelivery + 1;
    out.ports.push_back(std::move(r));
    return out;
}

/** The aggregates of the uniform conflict-free schedule of a
 *  @p length-element stream on service time @p T: element i issues
 *  at cycle i and is delivered at i + 1 + T. */
EmitSummary
uniformSummary(std::size_t length, Cycle T)
{
    const Cycle last = length == 0 ? 0 : static_cast<Cycle>(length) + T;
    return summarizePort(length, T, 0, last, 0);
}

} // namespace

TheoryBackend::TheoryBackend(const MemConfig &cfg,
                             const ModuleMapping &map)
    : cfg_(cfg), map_(&map)
{
}

void
TheoryBackend::premap(const std::vector<Request> &stream,
                      std::vector<ModuleId> &mods)
{
    mods.resize(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i)
        mods[i] = map_->moduleOf(stream[i].addr);
}

bool
TheoryBackend::tryClaim(std::size_t length, const ModuleId *mods,
                        AccessResult &out)
{
    const Cycle T = cfg_.serviceCycles();

    // An empty stream's schedule is vacuous; claim it outright so
    // the taxonomy never blames a zero-length access on the solver.
    if (length == 0) {
        applyEmitSummary(uniformSummary(0, T), out);
        return true;
    }

    // The proof: under the simulator's timing contract the request
    // issued at cycle i reaches its module at i+1.  If that module
    // is still busy (nextFree > i+1) the element queues, the
    // one-request-per-cycle cadence is broken, and the closed-form
    // schedule no longer holds — reject and let the solver (or the
    // stepper) take over.  If every request finds its module free on
    // arrival, service starts the same cycle it arrives, the module
    // is busy for T cycles, and ready times i+1+T are strictly
    // increasing, so the return bus delivers each element the cycle
    // it retires and never back-pressures the modules.  Input
    // buffers never fill either: an element bound for the same
    // module starts service (retire + start precede issue in the
    // cycle order) before the next one is accepted.  The schedule
    // below is therefore exact.
    nextFree_.assign(cfg_.modules(), 0);
    for (std::size_t i = 0; i < length; ++i) {
        const ModuleId mod = mods[i];
        cfva_assert(mod < cfg_.modules(),
                    "mapping produced out-of-range module");
        const Cycle arrive = static_cast<Cycle>(i) + 1;
        if (nextFree_[mod] > arrive)
            return false;
        nextFree_[mod] = arrive + T;
    }

    applyEmitSummary(uniformSummary(length, T), out);
    return true;
}

void
TheoryBackend::note(FallbackReason reason)
{
    lastClaimed_ = reason == FallbackReason::None;
    lastReason_ = reason;
    stats_.add(lastClaimed_);
}

bool
TheoryBackend::answer(const std::vector<Request> &stream,
                      const ModuleId *mods, AccessResult &out)
{
    // The proof is tried even when the planner's windows say the
    // stream conflicts: the windows are sufficient, not necessary,
    // so an out-of-window stream can still be conflict free, and
    // the walk stops at the first request that would queue.  Then
    // one memo lookup and one stepper pass: a claim when the memo
    // hits or the machine state recurs, otherwise the pass steps on
    // to the end of the stream and its answer is the stepped one.
    return tryClaim(stream.size(), mods, out)
           || solver_.solveOrStep(cfg_, stream, mods, out);
}

AccessResult
TheoryBackend::runSingle(const std::vector<Request> &stream)
{
    // Premap once; the proof and the solver's pass both reuse it.
    premap(stream, mods_);
    AccessResult out;
    note(answer(stream, mods_.data(), out)
             ? FallbackReason::None
             : FallbackReason::Conflicted);
    return out;
}

AccessResult
TheoryBackend::runSingleCertified(const std::vector<Request> &stream)
{
    note(FallbackReason::None);
    AccessResult out;
    applyEmitSummary(uniformSummary(stream.size(), cfg_.serviceCycles()),
                     out);
    return out;
}

MultiPortResult
TheoryBackend::runPorts(const std::vector<std::vector<Request>> &streams)
{
    cfva_assert(!streams.empty(), "need at least one port");
    if (streams.size() == 1)
        return wrapSinglePort(runSingle(streams[0]), streams[0].size());
    // Premap every port once: the disjointness check, the per-port
    // answers and a P-port pass all read the same premap.
    const std::size_t P = streams.size();
    portMods_.resize(P);
    for (std::size_t p = 0; p < P; ++p)
        premap(streams[p], portMods_[p]);
    solver_.beginPortCheck(cfg_.modules());
    bool disjoint = true;
    for (std::size_t p = 0; p < P && disjoint; ++p) {
        disjoint = solver_.portDisjoint(streams[p].size(),
                                        portMods_[p].data(),
                                        static_cast<unsigned>(p));
    }
    if (!disjoint) {
        // Ports sharing modules interleave on them; that schedule is
        // not single-port-decomposable, so it is stepped in one
        // P-port pass.
        note(FallbackReason::MultiPort);
        return solver_.stepPorts(cfg_, streams, portMods_);
    }

    // Disjoint ports never interact: every port issues one request
    // per cycle from cycle 0, arbitration ties are only broken
    // between requests for the SAME module, and each port has a
    // private return bus that delivers only its own elements — so
    // each port's trace is bit-identical to its single-port trace.
    // Answer each port on its own, once; the access is claimed iff
    // every port was.
    MultiPortResult out;
    out.ports.resize(P);
    bool claimed = true;
    Cycle lastDelivery = 0;
    bool any = false;
    for (std::size_t p = 0; p < P; ++p) {
        AccessResult &r = out.ports[p];
        if (!answer(streams[p], portMods_[p].data(), r))
            claimed = false;
        if (!streams[p].empty()) {
            any = true;
            lastDelivery = std::max(lastDelivery, r.lastDelivery);
        }
    }
    // Assembled as the stepped models assemble it: the makespan is
    // exclusive of the last delivery cycle, 0 when no element was
    // delivered, and each port's conflict-free flag was already
    // judged against its own single-stream floor.
    out.makespan = any ? lastDelivery + 1 : 0;
    note(claimed ? FallbackReason::None : FallbackReason::MultiPort);
    return out;
}

} // namespace cfva
