#include "memsys/event_driven.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace cfva {

namespace {

unsigned
wrap(unsigned i, unsigned depth)
{
    return i >= depth ? i - depth : i;
}

/**
 * Appends @p extra copies of emits[from, to) — the segment between
 * two matching snapshots — with repetition r's five timestamps
 * shifted by r * @p dC and its stream positions by r * @p dPos.
 */
void
replicate(std::vector<Emit> &emits, std::size_t from, std::size_t to,
          std::size_t extra, Cycle dC, std::size_t dPos)
{
    for (std::size_t r = 1; r <= extra; ++r) {
        for (std::size_t i = from; i < to; ++i) {
            Emit e = emits[i];
            e.pos += static_cast<std::uint32_t>(r * dPos);
            e.issued += r * dC;
            e.arrived += r * dC;
            e.serviceStart += r * dC;
            e.ready += r * dC;
            e.delivered += r * dC;
            emits.push_back(e);
        }
    }
}

} // namespace

void
EventStepper::reset(const MemConfig &cfg, bool record)
{
    const ModuleId count = cfg.modules();
    const std::size_t nPorts = ports_.size();
    if (count != moduleCount_) {
        moduleCount_ = count;
        retire_ = ModuleEventHeap(count);
        outputs_.clear();
    } else {
        retire_.clear();
        for (ModuleEventHeap &bus : outputs_)
            bus.clear();
    }
    while (outputs_.size() < nPorts)
        outputs_.emplace_back(count);
    q_ = cfg.inputBuffers;
    qOut_ = cfg.outputBuffers;
    t_ = cfg.serviceCycles();
    modules_.assign(count, Module{});
    in_.resize(static_cast<std::size_t>(count) * q_);
    out_.resize(static_cast<std::size_t>(count) * qOut_);
    arriving_.clear();

    // Every count is 0: the issue order starts in port order.
    order_.clear();
    if (emits_.size() < nPorts)
        emits_.resize(nPorts);
    for (unsigned p = 0; p < nPorts; ++p) {
        const std::size_t length = ports_[p].length;
        cfva_assert(length <= std::numeric_limits<std::uint32_t>::max(),
                    "a stream of ", length, " requests is longer than "
                    "the stepper's 32-bit stream positions");
        if (length != 0)
            order_.push_back(p);
        emits_[p].clear();
        if (record)
            emits_[p].reserve(length);
    }
}

std::size_t
EventStepper::smallestPeriod(std::size_t length, const ModuleId *mods)
{
    // KMP failure function over a prefix of at most 2 * kMaxPeriod
    // elements: the prefix's smallest period is its length minus its
    // longest proper border.  "Period p" means mods[i] == mods[i - p]
    // for every i >= p — exactly the property the replica
    // extrapolation relies on (p need not divide length).
    const std::size_t n = std::min(length, 2 * kMaxPeriod);
    fail_.assign(n, 0);
    std::uint32_t k = 0;
    for (std::size_t i = 1; i < n; ++i) {
        while (k > 0 && mods[i] != mods[k])
            k = fail_[k - 1];
        if (mods[i] == mods[k])
            ++k;
        fail_[i] = k;
    }
    const std::size_t p = n - fail_[n - 1];
    if (n == length)
        return p;
    // By Fine and Wilf's theorem, if the whole sequence has a period
    // q <= kMaxPeriod, the prefix (length >= 2 * kMaxPeriod >= q + p)
    // also has period gcd(p, q), so p divides q and p is a period of
    // the whole sequence too — the prefix's p is the only candidate.
    if (p > kMaxPeriod || !std::equal(mods + n, mods + length, mods + n - p))
        return length;
    return p;
}

std::uint64_t
EventStepper::encodeState(Cycle now, std::size_t next)
{
    // Everything is serialized relative to the current cycle and
    // issue position, in module-id order and logical ring order, so
    // two cycle-tops with equal signatures evolve identically (all
    // decisions compare times to `now`, positions to `next`, and
    // modules by id).  Idle modules are left out, and so are the
    // timestamps that follow from others (arrival = issue + 1,
    // ready = service start + T): equal signatures still mean equal
    // states.  The event heaps and the pending arrival are functions
    // of this state and `now`, so they need no encoding.
    sig_.clear();
    const auto relC = [now](Cycle c) {
        return static_cast<std::int64_t>(c)
               - static_cast<std::int64_t>(now);
    };
    const auto relP = [next](std::uint32_t pos) {
        return static_cast<std::int64_t>(pos)
               - static_cast<std::int64_t>(next);
    };
    for (ModuleId id = 0; id < moduleCount_; ++id) {
        const Module &m = modules_[id];
        if (m.inCount == 0 && !m.busy && m.outCount == 0)
            continue;
        sig_.push_back(id);
        sig_.push_back(m.inCount);
        for (unsigned i = 0; i < m.inCount; ++i) {
            const Flight &f = inAt(id, m.inHead + i);
            sig_.push_back(relP(f.pos));
            sig_.push_back(relC(f.issued));
        }
        sig_.push_back((m.busy ? 1 : 0) | (m.retireBlocked ? 2 : 0));
        if (m.busy) {
            sig_.push_back(relP(m.svc.pos));
            sig_.push_back(relC(m.svc.issued));
            sig_.push_back(relC(m.svc.serviceStart));
        }
        sig_.push_back(m.outCount);
        for (unsigned i = 0; i < m.outCount; ++i) {
            const Flight &f = outAt(id, m.outHead + i);
            sig_.push_back(relP(f.pos));
            sig_.push_back(relC(f.issued));
            sig_.push_back(relC(f.serviceStart));
        }
    }
    std::uint64_t h = 14695981039346656037ull; // FNV-1a basis
    for (std::int64_t v : sig_) {
        h ^= static_cast<std::uint64_t>(v);
        h *= 1099511628211ull;
    }
    return h;
}

void
EventStepper::shiftState(Cycle tShift, std::uint32_t pShift)
{
    const auto shift = [tShift, pShift](Flight &f) {
        f.pos += pShift;
        f.issued += tShift;
        f.serviceStart += tShift;
    };
    for (ModuleId id = 0; id < moduleCount_; ++id) {
        Module &m = modules_[id];
        for (unsigned i = 0; i < m.inCount; ++i)
            shift(inAt(id, m.inHead + i));
        if (m.busy)
            shift(m.svc);
        for (unsigned i = 0; i < m.outCount; ++i)
            shift(outAt(id, m.outHead + i));
    }
    retire_.shiftTimes(tShift);
    outputs_.front().shiftTimes(tShift);
}

void
EventStepper::reorderPorts()
{
    // Insertion pass: an issue raises a port's count by one, so the
    // list is nearly sorted and this costs O(P) per issuing cycle.
    std::size_t n = 0;
    for (std::size_t k = 0; k < order_.size(); ++k) {
        const unsigned p = order_[k];
        const Port &ps = ports_[p];
        if (ps.next == ps.length)
            continue;
        std::size_t j = n;
        for (; j > 0; --j) {
            const unsigned o = order_[j - 1];
            const std::size_t issued = ports_[o].next;
            if (issued < ps.next || (issued == ps.next && o < p))
                break;
            order_[j] = o;
        }
        order_[j] = p;
        ++n;
    }
    order_.resize(n);
}

void
EventStepper::tryStart(ModuleId id, Cycle now)
{
    Module &m = modules_[id];
    if (m.busy || m.inCount == 0)
        return;
    const Flight &head = inAt(id, m.inHead);
    if (head.issued + 1 > now)
        return; // still on the request bus
    m.svc = head;
    m.svc.serviceStart = now;
    m.inHead = wrap(m.inHead + 1, q_);
    --m.inCount;
    m.busy = true;
    retire_.push(id, now + t_);
}

template <bool kOnePort>
bool
EventStepper::step(const MemConfig &cfg, std::size_t period, bool record)
{
    reset(cfg, record);
    const unsigned nPorts =
        kOnePort ? 1 : static_cast<unsigned>(ports_.size());
    std::size_t total = 0;
    for (const Port &ps : ports_)
        total += ps.length;

    const Cycle T = t_;
    const auto target = [&](const Port &ps) {
        const ModuleId id = ps.mods[ps.next];
        cfva_assert(id < moduleCount_, "mapping produced module ", id,
                    " outside 2^", cfg.m);
        return id;
    };
    // Same wedge guard as the per-cycle model; a jump assigns true
    // cycle numbers, so the bound stays meaningful after it.
    const Cycle limit = cfg.wedgeLimit(total, nPorts);
    const Cycle never = std::numeric_limits<Cycle>::max();

    // Snapshot and jump state, one-port passes only.
    Port &first = ports_.front();
    bool snapping = period != 0;
    std::size_t nextSnapPos = period;
    std::size_t snapCount = 0;
    bool jumped = false;
    Cycle jumpedSpan = 0;

    std::size_t delivered = 0; // elements over the return buses
    Cycle now = 0;
    while (delivered < total) {
        cfva_assert(now <= limit, "simulation wedged at cycle ", now);

        // 1. Retire finished services into output buffers.  A full
        //    output buffer parks the module until a delivery from it
        //    frees a slot.  A module that retires may start its next
        //    service in the same cycle (it was busy [start,
        //    start+T-1]); starting it right here is the model's step
        //    3, since neither the return buses nor another module's
        //    retirement reads this module's input side.
        while (!retire_.empty() && retire_.top().time <= now) {
            const ModuleId id = retire_.pop().module;
            Module &m = modules_[id];
            if (m.outCount >= qOut_) {
                m.retireBlocked = true;
                continue;
            }
            outAt(id, m.outHead + m.outCount) = m.svc;
            if (m.outCount++ == 0)
                outputs_[m.svc.port].push(id, m.svc.serviceStart + T);
            m.busy = false;
            tryStart(id, now);
        }

        // 2. Return buses, in port order: each delivers at most its
        //    own oldest ready element, lowest module on ties — the
        //    heap order of its bus.  The head a delivery reveals
        //    joins its own port's bus, so a later port can still
        //    take it this cycle — the per-cycle model's port-by-port
        //    scan.
        for (unsigned p = 0; p < nPorts; ++p) {
            ModuleEventHeap &bus = outputs_[p];
            if (bus.empty() || bus.top().time > now)
                continue;
            const ModuleId id = bus.pop().module;
            Module &m = modules_[id];
            if (record) {
                const Flight &f = outAt(id, m.outHead);
                emits_[p].push_back({f.pos, f.issued, f.issued + 1,
                                     f.serviceStart,
                                     f.serviceStart + T, now});
            }
            m.outHead = wrap(m.outHead + 1, qOut_);
            if (--m.outCount != 0) {
                const Flight &head = outAt(id, m.outHead);
                outputs_[head.port].push(id, head.serviceStart + T);
            }
            ports_[p].lastDelivery = now;
            ++delivered;
            if (m.retireBlocked) {
                // The freed slot lets the parked service retire at
                // the next cycle's step 1 (this cycle's retire step
                // has already passed, exactly as in the per-cycle
                // model).
                m.retireBlocked = false;
                retire_.push(id, now + 1);
            }
        }

        // 3. Start new services.  Besides a retirement (step 1),
        //    only this cycle's request-bus arrivals (at most one per
        //    port, all issued last cycle) can make one possible.
        for (ModuleId id : arriving_)
            tryStart(id, now);
        arriving_.clear();

        // 4. Issue: least-issued port first, so contention for an
        //    input-buffer slot alternates among the contenders.
        bool issued = false;
        for (unsigned p : order_) {
            Port &ps = ports_[p];
            const ModuleId id = target(ps);
            Module &m = modules_[id];
            if (m.inCount < q_) {
                Flight &f = inAt(id, m.inHead + m.inCount);
                f.pos = static_cast<std::uint32_t>(ps.next);
                f.port = p;
                f.issued = now;
                ++m.inCount;
                arriving_.push_back(id);
                if (ps.next == 0)
                    ps.firstIssue = now;
                ++ps.next;
                issued = true;
            } else {
                ++ps.stalls;
            }
        }
        if constexpr (kOnePort) {
            if (first.next == first.length)
                order_.clear(); // issued everything
        } else if (issued) {
            reorderPorts();
        }

        // Snapshot the relative state at the top of the first cycle
        // where the issue position reaches each multiple of the
        // module-sequence period (the cycle after that issue).  A
        // match against an earlier snapshot proves the steady state:
        // everything between the two cycle-tops repeats verbatim,
        // shifted by (dC cycles, dPos positions) per repetition,
        // until the stream runs out — so jump over the whole
        // repetitions and step the tail from there.
        if (snapping && first.next == nextSnapPos) {
            const Cycle top = now + 1;
            const std::uint64_t h = encodeState(top, first.next);
            const Snapshot *match = nullptr;
            for (std::size_t i = 0; i < snapCount; ++i) {
                if (snapshots_[i].hash == h && snapshots_[i].sig == sig_) {
                    match = &snapshots_[i];
                    break;
                }
            }
            if (match) {
                snapping = false;
                jumped = true;
                const Cycle dC = top - match->now;
                const std::size_t dPos = first.next - match->next;
                const std::size_t extra =
                    (first.length - match->next) / dPos - 1;
                if (extra > 0) {
                    if (record) {
                        replicate(emits_.front(), match->delivered,
                                  delivered, extra, dC, dPos);
                    }
                    const Cycle tShift = extra * dC;
                    first.stalls += extra * (first.stalls - match->stalls);
                    delivered += extra * (delivered - match->delivered);
                    shiftState(tShift,
                               static_cast<std::uint32_t>(extra * dPos));
                    first.lastDelivery += tShift;
                    now += tShift;
                    first.next += extra * dPos;
                    jumpedSpan = tShift;
                    if (first.next == first.length)
                        order_.clear(); // the jump issued everything
                }
            } else if (snapCount >= kMaxSnapshots) {
                // No recurrence within the snapshot budget: step on
                // from here, the work so far is the answer's prefix.
                snapping = false;
            } else {
                if (snapCount == snapshots_.size())
                    snapshots_.emplace_back();
                Snapshot &s = snapshots_[snapCount++];
                s.hash = h;
                s.sig.assign(sig_.begin(), sig_.end());
                s.now = top;
                s.next = first.next;
                s.delivered = delivered;
                s.stalls = first.stalls;
                nextSnapPos += period;
                // No snapshot position left before the stream ends.
                snapping = nextSnapPos < first.length;
            }
        }

        if (delivered == total)
            break;

        // Advance to the next cycle at which any state can change.
        bool pending = !arriving_.empty();
        for (unsigned p = 0; p < nPorts && !pending; ++p)
            pending = !outputs_[p].empty();
        Cycle wake = never;
        if (pending) {
            // A pending output delivers, or an arrival lands, next
            // cycle.
            wake = now + 1;
        } else if (!retire_.empty()) {
            wake = std::max(retire_.top().time, now + 1);
        }
        if (wake > now + 1) {
            for (unsigned p : order_) {
                if (modules_[target(ports_[p])].inCount < q_) {
                    wake = now + 1; // this port's issue succeeds
                    break;
                }
            }
        }
        cfva_assert(wake != never,
                    "no pending events but the access has not "
                    "drained (delivered ", delivered, " of ", total,
                    ")");

        // Every skipped cycle is, for each unfinished port, one
        // issue retry against an unchanged (full) input buffer:
        // account the stalls in bulk.
        for (unsigned p : order_)
            ports_[p].stalls += wake - now - 1;
        now = wake;
    }

    stepped_ = total == 0 ? 0 : now + 1 - jumpedSpan;
    return jumped;
}

bool
EventStepper::run(const MemConfig &cfg,
                  const std::vector<Request> &stream,
                  const ModuleId *mods, bool materialize,
                  AccessResult &result)
{
    const std::size_t length = stream.size();

    // Snapshots need a period short enough to keep and two
    // snapshot positions below the stream's end.
    std::size_t period = length == 0 ? 0 : smallestPeriod(length, mods);
    if (period > kMaxPeriod || length <= 2 * period)
        period = 0;

    ports_.assign(1, Port{mods, length});
    const bool jumped = step<true>(cfg, period, materialize);
    const Port &ps = ports_.front();
    summarizePort(length, t_, ps.firstIssue, ps.lastDelivery, ps.stalls,
                  result);
    if (materialize)
        materializeEmits(emits_.front(), stream, mods, 0, result);
    return jumped;
}

MultiPortResult
EventStepper::runPorts(const MemConfig &cfg,
                       const std::vector<std::vector<Request>> &streams,
                       const std::vector<std::vector<ModuleId>> &mods,
                       bool materialize)
{
    const auto nPorts = static_cast<unsigned>(streams.size());
    cfva_assert(nPorts > 0 && mods.size() >= nPorts,
                "need a premapped stream per port");
    ports_.clear();
    for (unsigned p = 0; p < nPorts; ++p) {
        const std::size_t length = streams[p].size();
        cfva_assert(mods[p].size() == length, "port ", p, " has ",
                    length, " requests but ", mods[p].size(),
                    " premapped modules");
        ports_.push_back(Port{mods[p].data(), length});
    }
    step<false>(cfg, 0, materialize);

    MultiPortResult result;
    result.ports.resize(nPorts);
    for (unsigned p = 0; p < nPorts; ++p) {
        const Port &ps = ports_[p];
        AccessResult &port = result.ports[p];
        summarizePort(ps.length, t_, ps.firstIssue, ps.lastDelivery,
                      ps.stalls, port);
        if (!materialize)
            continue;
        port.deliveries.reserve(ps.length);
        materializeEmits(emits_[p], streams[p], ps.mods, p, port);
    }
    result.makespan = stepped_;
    return result;
}

} // namespace cfva
