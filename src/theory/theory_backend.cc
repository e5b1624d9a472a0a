#include "theory/theory_backend.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "theory/theory.h"

namespace cfva {

namespace {

/** Lifts a single-port AccessResult into the P = 1 MultiPortResult
 *  the stepped models produce for the same stream. */
MultiPortResult
wrapSinglePort(AccessResult &&r)
{
    MultiPortResult out;
    out.makespan = r.deliveries.empty() ? 0 : r.lastDelivery + 1;
    out.ports.push_back(std::move(r));
    return out;
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

void
TheoryBackend::summarizeUniform(std::size_t length,
                                AccessResult &out)
{
    const Cycle T = cfg_.serviceCycles();
    const Cycle L = static_cast<Cycle>(length);
    out.firstIssue = 0;
    out.lastDelivery = length == 0 ? 0 : L + T;
    out.latency = length == 0 ? 0 : theory::minimumLatency(L, T);
    out.stallCycles = 0;
    out.conflictFree = true;
}

void
TheoryBackend::synthesizeUniform(const std::vector<Request> &stream,
                                 const ModuleId *mods,
                                 DeliveryArena *arena,
                                 AccessResult &out)
{
    const Cycle T = cfg_.serviceCycles();
    const std::size_t L = stream.size();
    out.deliveries =
        arena ? arena->acquire(L) : std::vector<Delivery>{};
    out.deliveries.reserve(L);
    for (std::size_t i = 0; i < L; ++i) {
        Delivery d;
        d.addr = stream[i].addr;
        d.element = stream[i].element;
        d.module = mods[i];
        d.issued = static_cast<Cycle>(i);
        d.arrived = d.issued + 1;
        d.serviceStart = d.arrived;
        d.ready = d.serviceStart + T;
        d.delivered = d.ready;
        out.deliveries.push_back(d);
    }
    summarizeUniform(L, out);
}

bool
TheoryBackend::tryClaim(const std::vector<Request> &stream,
                        const ModuleId *mods, DeliveryArena *arena,
                        AccessResult &out, bool materialize)
{
    const Cycle T = cfg_.serviceCycles();
    const std::size_t L = stream.size();

    // An empty stream's schedule is vacuous; claim it outright so
    // the taxonomy never blames a zero-length access on the solver.
    if (L == 0) {
        summarizeUniform(0, out);
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
    for (std::size_t i = 0; i < L; ++i) {
        const ModuleId mod = mods[i];
        cfva_assert(mod < cfg_.modules(),
                    "mapping produced out-of-range module");
        const Cycle arrive = static_cast<Cycle>(i) + 1;
        if (nextFree_[mod] > arrive)
            return false;
        nextFree_[mod] = arrive + T;
    }

    if (materialize)
        synthesizeUniform(stream, mods, arena, out);
    else
        summarizeUniform(L, out);
    return true;
}

void
TheoryBackend::note(bool claimed, FallbackReason reason)
{
    lastClaimed_ = claimed;
    lastReason_ = reason;
    stats_.add(claimed);
}

AccessResult
TheoryBackend::runSingleHinted(bool expectConflictFree,
                               const std::vector<Request> &stream,
                               DeliveryArena *arena,
                               ResultDetail detail)
{
    // Premap once; the proof and the solver's pass both reuse it.
    premap(stream, mods_);
    AccessResult out;
    // The proof is tried even when the planner's windows say the
    // stream conflicts: the windows are sufficient, not necessary,
    // so an out-of-window stream can still be conflict free, and
    // the walk stops at the first request that would queue.
    if (tryClaim(stream, mods_.data(), arena, out,
                 detail == ResultDetail::Full)) {
        note(true, FallbackReason::None);
        return out;
    }
    // One memo lookup and one stepper pass: a claim when the memo
    // hits or the machine state recurs, otherwise the pass steps on
    // to the end of the stream and its answer is the stepped one.
    // A solver answer is non-uniform, so SummaryIfUniform
    // materializes it: its chained cost is not closed-form for the
    // caller.
    if (solver_.solveOrStep(cfg_, stream, mods_.data(), arena, out,
                            detail != ResultDetail::Summary)) {
        note(true, FallbackReason::None);
    } else {
        note(false, expectConflictFree ? FallbackReason::Unproven
                                       : FallbackReason::Conflicted);
    }
    return out;
}

AccessResult
TheoryBackend::runSingleCertified(const std::vector<Request> &stream,
                                  DeliveryArena *arena,
                                  ResultDetail detail)
{
    note(true, FallbackReason::None);
    AccessResult out;
    if (detail == ResultDetail::Full) {
        // Full detail still needs each delivery's module number.
        premap(stream, mods_);
        synthesizeUniform(stream, mods_.data(), arena, out);
    } else {
        summarizeUniform(stream.size(), out);
    }
    return out;
}

AccessResult
TheoryBackend::runSingle(const std::vector<Request> &stream,
                         DeliveryArena *arena)
{
    return runSingleHinted(true, stream, arena);
}

bool
TheoryBackend::tryClaimPorts(
    const std::vector<std::vector<Request>> &streams,
    DeliveryArena *arena, MultiPortResult &out, ResultDetail detail)
{
    const std::size_t P = streams.size();
    solver_.beginPortCheck(cfg_.modules());
    for (std::size_t p = 0; p < P; ++p) {
        if (!solver_.portDisjoint(streams[p].size(),
                                  portMods_[p].data(),
                                  static_cast<unsigned>(p)))
            return false;
    }

    // Disjoint ports never interact: every port issues one request
    // per cycle from cycle 0, arbitration ties are only broken
    // between requests for the SAME module, and each port has a
    // private return bus that delivers only its own elements — so
    // each port's trace is bit-identical to its single-port trace.
    // Answer each port analytically; any port neither the proof nor
    // the solver can close defeats the whole claim.
    out.ports.clear();
    out.ports.resize(P);
    Cycle lastDelivery = 0;
    bool any = false;
    for (std::size_t p = 0; p < P; ++p) {
        AccessResult &r = out.ports[p];
        const ModuleId *mods = portMods_[p].data();
        if (!tryClaim(streams[p], mods, arena, r,
                      detail == ResultDetail::Full)
            && !solver_.solve(cfg_, streams[p], mods, arena, r,
                              detail != ResultDetail::Summary)) {
            if (arena) {
                for (std::size_t q = 0; q < p; ++q)
                    arena->release(
                        std::move(out.ports[q].deliveries));
            }
            out.ports.clear();
            return false;
        }
        for (Delivery &d : r.deliveries)
            d.port = static_cast<unsigned>(p);
        if (streams[p].size() > 0) {
            any = true;
            lastDelivery = std::max(lastDelivery, r.lastDelivery);
        }
    }
    // Assembled as the stepped models assemble it: the makespan is
    // exclusive of the last delivery cycle, 0 when no element was
    // delivered, and each port's conflict-free flag was already
    // judged against its own single-stream floor.
    out.makespan = any ? lastDelivery + 1 : 0;
    return true;
}

MultiPortResult
TheoryBackend::runPorts(
    const std::vector<std::vector<Request>> &streams,
    DeliveryArena *arena, ResultDetail detail)
{
    cfva_assert(!streams.empty(), "need at least one port");
    if (streams.size() == 1)
        return wrapSinglePort(
            runSingleHinted(true, streams[0], arena, detail));
    // Premap every port once: the disjointness proof, the per-port
    // claims and a stepped answer all read the same premap.
    portMods_.resize(streams.size());
    for (std::size_t p = 0; p < streams.size(); ++p)
        premap(streams[p], portMods_[p]);
    MultiPortResult out;
    if (tryClaimPorts(streams, arena, out, detail)) {
        note(true, FallbackReason::None);
        return out;
    }
    // Ports sharing modules interleave on them; that schedule is
    // not single-port-decomposable, so it is stepped — one P-port
    // pass, with deliveries unless the caller wants a summary.
    note(false, FallbackReason::MultiPort);
    return solver_.stepPorts(cfg_, streams, portMods_, arena,
                             detail != ResultDetail::Summary);
}

MultiPortResult
TheoryBackend::run(const std::vector<std::vector<Request>> &streams,
                   DeliveryArena *arena)
{
    return runPorts(streams, arena, ResultDetail::Full);
}

} // namespace cfva
