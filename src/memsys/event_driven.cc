#include "memsys/event_driven.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "memsys/backend.h"

namespace cfva {

namespace {

/** "No module" for the pending-arrival slot. */
constexpr ModuleId kNoModule = ~ModuleId{0};

unsigned
wrap(unsigned i, unsigned depth)
{
    return i >= depth ? i - depth : i;
}

/**
 * Appends @p extra copies of records[from, to) — the segment between
 * two matching snapshots — with repetition r's five timestamps
 * shifted by r * @p dC; @p rebind(record, r, i) then renames the copy
 * of records[i] for repetition r.  Deliveries and position-form
 * emits share the timestamp fields this touches.
 */
template <typename Record, typename Rebind>
void
replicate(std::vector<Record> &records, std::size_t from, std::size_t to,
          std::size_t extra, Cycle dC, Rebind rebind)
{
    for (std::size_t r = 1; r <= extra; ++r) {
        for (std::size_t i = from; i < to; ++i) {
            Record rec = records[i];
            rec.issued += r * dC;
            rec.arrived += r * dC;
            rec.serviceStart += r * dC;
            rec.ready += r * dC;
            rec.delivered += r * dC;
            rebind(rec, r, i);
            records.push_back(rec);
        }
    }
}

} // namespace

void
EventStepper::reset(const MemConfig &cfg, unsigned ports)
{
    const ModuleId count = cfg.modules();
    if (count != moduleCount_) {
        moduleCount_ = count;
        retire_ = ModuleEventHeap(count);
        outputs_.clear();
    } else {
        retire_.clear();
        for (ModuleEventHeap &bus : outputs_)
            bus.clear();
    }
    while (outputs_.size() < ports)
        outputs_.emplace_back(count);
    q_ = cfg.inputBuffers;
    qOut_ = cfg.outputBuffers;
    t_ = cfg.serviceCycles();
    modules_.assign(count, Module{});
    in_.resize(static_cast<std::size_t>(count) * q_);
    out_.resize(static_cast<std::size_t>(count) * qOut_);
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
    if (p > kMaxPeriod)
        return length;
    for (std::size_t i = n; i < length; ++i) {
        if (mods[i] != mods[i - p])
            return length;
    }
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

bool
EventStepper::run(const MemConfig &cfg,
                  const std::vector<Request> &stream,
                  const ModuleId *mods, Recurrence mode,
                  bool materialize, bool trace, AccessResult &result)
{
    const std::size_t length = stream.size();
    stepped_ = 0;
    summary_ = {};
    emits_.clear();
    if (length == 0) {
        if (mode == Recurrence::JumpOrAbandon)
            return false;
        summary_.conflictFree = true; // vacuously at the minimum
        applyEmitSummary(summary_, result);
        return false;
    }

    cfva_assert(length <= std::numeric_limits<std::uint32_t>::max(),
                "a stream of ", length, " requests is longer than the "
                "stepper's 32-bit stream positions");

    // Recurrence detection needs a period short enough to snapshot
    // and two snapshot positions below the stream's end.
    std::size_t period = 0;
    bool snapping = false;
    if (mode != Recurrence::Off) {
        period = smallestPeriod(length, mods);
        snapping = period < length && period <= kMaxPeriod
                   && (length - 1) / period >= 2;
        if (!snapping && mode == Recurrence::JumpOrAbandon)
            return false;
    }

    reset(cfg, 1);
    std::vector<Delivery> &out = result.deliveries;
    if (trace)
        emits_.reserve(length);
    // While snapshots are live, the stream position of every
    // materialized delivery, so a jump can replicate the segment
    // against the right requests.  Snapshotting ends within
    // kMaxSnapshots periods, which bounds this scratch.
    positions_.clear();

    const Cycle T = t_;
    const auto target = [&](std::size_t i) {
        cfva_assert(mods[i] < moduleCount_, "mapping produced module ",
                    mods[i], " outside 2^", cfg.m);
        return mods[i];
    };

    std::size_t next = 0;      // next request to issue
    std::size_t delivered = 0; // elements over the return bus
    std::uint64_t stalls = 0;
    Cycle firstIssue = 0;
    Cycle lastDelivery = 0;
    // The processor issues at most one request per cycle and every
    // issue wakes the very next cycle, so at most one request-bus
    // arrival is ever pending: the one issued on the previous cycle.
    ModuleId arriving = kNoModule;

    std::size_t nextSnapPos = period;
    std::size_t snapCount = 0;
    bool jumped = false;
    Cycle jumpedSpan = 0;

    // Same wedge guard as the per-cycle model; a jump assigns true
    // cycle numbers, so the bound stays meaningful after it.
    const Cycle limit = cfg.wedgeLimit(length, 1);
    const Cycle never = std::numeric_limits<Cycle>::max();
    ModuleEventHeap &bus = outputs_.front();

    // Starts the input-buffer head's service on an idle module if
    // it has crossed the request bus.
    const auto tryStart = [&](ModuleId id, Cycle now) {
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
        retire_.push(id, now + T);
    };

    Cycle now = 0;
    for (;;) {
        cfva_assert(now <= limit, "simulation wedged at cycle ", now);

        // 1. Retire finished services into output buffers.  A full
        //    output buffer parks the module until a delivery from it
        //    frees a slot.  A module that retires may start its next
        //    service in the same cycle (it was busy [start,
        //    start+T-1]); starting it right here is the model's step
        //    3, since neither the return bus nor another module's
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
                bus.push(id, m.svc.serviceStart + T);
            m.busy = false;
            tryStart(id, now);
        }

        // 2. Return bus: at most one delivery per cycle, oldest
        //    ready first, lowest module number on ties — the heap
        //    order of `bus`.
        if (!bus.empty() && bus.top().time <= now) {
            const ModuleId id = bus.pop().module;
            Module &m = modules_[id];
            const Flight f = outAt(id, m.outHead);
            if (materialize) {
                const Request &req = stream[f.pos];
                out.push_back({req.addr, req.element, id, 0, f.issued,
                               f.issued + 1, f.serviceStart,
                               f.serviceStart + T, now});
                if (snapping)
                    positions_.push_back(f.pos);
            }
            if (trace) {
                emits_.push_back({f.pos, f.issued, f.issued + 1,
                                  f.serviceStart, f.serviceStart + T,
                                  now});
            }
            m.outHead = wrap(m.outHead + 1, qOut_);
            if (--m.outCount != 0)
                bus.push(id, outAt(id, m.outHead).serviceStart + T);
            ++delivered;
            lastDelivery = now;
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
        //    only the request-bus arrival can make one possible.
        if (arriving != kNoModule) {
            tryStart(arriving, now);
            arriving = kNoModule;
        }

        // 4. Processor: attempt to issue one request.
        if (next < length) {
            const ModuleId id = target(next);
            Module &m = modules_[id];
            if (m.inCount < q_) {
                Flight &f = inAt(id, m.inHead + m.inCount);
                f.pos = static_cast<std::uint32_t>(next);
                f.issued = now;
                ++m.inCount;
                arriving = id;
                if (next == 0)
                    firstIssue = now;
                ++next;
            } else {
                ++stalls;
            }
        }

        // Snapshot the relative state at the top of the first cycle
        // where the issue position reaches each multiple of the
        // module-sequence period (the cycle after that issue).  A
        // match against an earlier snapshot proves the steady state:
        // everything between the two cycle-tops repeats verbatim,
        // shifted by (dC cycles, dPos positions) per repetition,
        // until the stream runs out — so jump over the whole
        // repetitions and step the tail from there.
        if (snapping && next == nextSnapPos) {
            const Cycle top = now + 1;
            const std::uint64_t h = encodeState(top, next);
            const Snapshot *match = nullptr;
            for (std::size_t i = 0; i < snapCount; ++i) {
                if (snapshots_[i].hash == h && snapshots_[i].sig == sig_) {
                    match = &snapshots_[i];
                    break;
                }
            }
            bool givingUp = false;
            if (match) {
                snapping = false;
                jumped = true;
                const Cycle dC = top - match->now;
                const std::size_t dPos = next - match->next;
                const std::size_t extra =
                    (length - match->next) / dPos - 1;
                if (extra > 0) {
                    const std::size_t from = match->delivered;
                    if (materialize) {
                        replicate(out, from, delivered, extra, dC,
                                  [&](Delivery &d, std::size_t r,
                                      std::size_t i) {
                                      const std::size_t pos =
                                          positions_[i] + r * dPos;
                                      d.addr = stream[pos].addr;
                                      d.element = stream[pos].element;
                                      d.module = mods[pos];
                                  });
                    }
                    if (trace) {
                        replicate(emits_, from, delivered, extra, dC,
                                  [dPos](Emit &e, std::size_t r,
                                         std::size_t) {
                                      e.pos += static_cast<std::uint32_t>(
                                          r * dPos);
                                  });
                    }
                    const Cycle tShift = extra * dC;
                    stalls += extra * (stalls - match->stalls);
                    delivered += extra * (delivered - match->delivered);
                    shiftState(tShift,
                               static_cast<std::uint32_t>(extra * dPos));
                    lastDelivery += tShift;
                    now += tShift;
                    next += extra * dPos;
                    jumpedSpan = tShift;
                }
            } else if (snapCount >= kMaxSnapshots) {
                givingUp = true;
            } else {
                if (snapCount == snapshots_.size())
                    snapshots_.emplace_back();
                Snapshot &s = snapshots_[snapCount++];
                s.hash = h;
                s.sig.assign(sig_.begin(), sig_.end());
                s.now = top;
                s.next = next;
                s.delivered = delivered;
                s.stalls = stalls;
                nextSnapPos += period;
                givingUp = nextSnapPos >= length;
            }
            if (givingUp) {
                // No recurrence before the stream ends (or within the
                // snapshot budget).  Abandon, or keep stepping from
                // here: the work so far is the answer's prefix.
                snapping = false;
                if (mode == Recurrence::JumpOrAbandon) {
                    stepped_ = top;
                    out.clear();
                    return false;
                }
            }
        }

        if (next == length && delivered == length)
            break;

        // Advance to the next cycle at which any state can change.
        Cycle wake = never;
        if (!bus.empty() || arriving != kNoModule) {
            // A pending output delivers, or the arrival lands, next
            // cycle.
            wake = now + 1;
        } else if (!retire_.empty()) {
            wake = std::max(retire_.top().time, now + 1);
        }
        if (next < length && modules_[target(next)].inCount < q_) {
            // The pending issue succeeds next cycle.
            wake = now + 1;
        }
        cfva_assert(wake != never,
                    "no pending events but the access has not "
                    "drained (next=", next, ", delivered=", delivered,
                    ")");

        // Every skipped cycle is a processor retry against an
        // unchanged (full) input buffer: account the stalls in bulk.
        if (next < length)
            stalls += wake - now - 1;
        now = wake;
    }

    summary_ =
        summarizePort(length, T, firstIssue, lastDelivery, stalls);
    stepped_ = now + 1 - jumpedSpan;
    applyEmitSummary(summary_, result);
    return jumped;
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

MultiPortResult
EventStepper::runPorts(const MemConfig &cfg,
                       const std::vector<std::vector<Request>> &streams,
                       const std::vector<std::vector<ModuleId>> &mods,
                       bool materialize, DeliveryArena *arena)
{
    const auto nPorts = static_cast<unsigned>(streams.size());
    cfva_assert(nPorts > 0 && mods.size() >= nPorts,
                "need a premapped stream per port");
    reset(cfg, nPorts);
    MultiPortResult result;
    result.ports.resize(nPorts);
    ports_.assign(nPorts, Port{});
    order_.clear();
    std::size_t total = 0;
    for (unsigned p = 0; p < nPorts; ++p) {
        const std::size_t length = streams[p].size();
        cfva_assert(mods[p].size() == length, "port ", p, " has ",
                    length, " requests but ", mods[p].size(),
                    " premapped modules");
        cfva_assert(length <= std::numeric_limits<std::uint32_t>::max(),
                    "a stream of ", length, " requests is longer than "
                    "the stepper's 32-bit stream positions");
        ports_[p].mods = mods[p].data();
        ports_[p].length = length;
        total += length;
        if (length != 0)
            order_.push_back(p); // every count is 0: port order
        if (materialize) {
            std::vector<Delivery> &buf = result.ports[p].deliveries;
            if (arena)
                buf = arena->acquire(length);
            buf.reserve(length);
        }
    }
    arriving_.clear();

    const Cycle T = t_;
    const auto target = [&](const Port &ps) {
        const ModuleId id = ps.mods[ps.next];
        cfva_assert(id < moduleCount_, "mapping produced module ", id,
                    " outside 2^", cfg.m);
        return id;
    };
    const Cycle limit = cfg.wedgeLimit(total, nPorts);
    const Cycle never = std::numeric_limits<Cycle>::max();

    // Starts the input-buffer head's service on an idle module if
    // it has crossed the request bus.
    const auto tryStart = [&](ModuleId id, Cycle now) {
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
        retire_.push(id, now + T);
    };

    std::size_t delivered = 0;
    Cycle now = 0;
    while (delivered < total) {
        cfva_assert(now <= limit, "multi-port simulation wedged at "
                    "cycle ", now);

        // 1. Retire finished services into output buffers, parking a
        //    module on a full one, and start the next service.
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

        // 2. Return buses, in port order: each delivers its own
        //    oldest ready element.  The head a delivery reveals joins
        //    its own port's bus, so a later port can still take it
        //    this cycle — the per-cycle model's port-by-port scan.
        for (unsigned p = 0; p < nPorts; ++p) {
            ModuleEventHeap &bus = outputs_[p];
            if (bus.empty() || bus.top().time > now)
                continue;
            const ModuleId id = bus.pop().module;
            Module &m = modules_[id];
            const Flight f = outAt(id, m.outHead);
            if (materialize) {
                const Request &req = streams[p][f.pos];
                result.ports[p].deliveries.push_back(
                    {req.addr, req.element, id, p, f.issued,
                     f.issued + 1, f.serviceStart, f.serviceStart + T,
                     now});
            }
            m.outHead = wrap(m.outHead + 1, qOut_);
            if (--m.outCount != 0) {
                const Flight &head = outAt(id, m.outHead);
                outputs_[head.port].push(id, head.serviceStart + T);
            }
            ports_[p].lastDelivery = now;
            ++delivered;
            if (m.retireBlocked) {
                // The parked service retires at the next cycle's
                // step 1, as in the single-port pass.
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
        if (issued)
            reorderPorts();

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
        // issue retry against an unchanged (full) input buffer.
        for (unsigned p : order_)
            ports_[p].stalls += wake - now - 1;
        now = wake;
    }

    for (unsigned p = 0; p < nPorts; ++p) {
        const Port &ps = ports_[p];
        applyEmitSummary(summarizePort(ps.length, T, ps.firstIssue,
                                       ps.lastDelivery, ps.stalls),
                         result.ports[p]);
    }
    result.makespan = total == 0 ? 0 : now + 1;
    stepped_ = result.makespan;
    return result;
}

EventDrivenMemorySystem::EventDrivenMemorySystem(
    const MemConfig &cfg, const ModuleMapping &map, MapPath path,
    CollapseMode collapse)
    : cfg_(cfg), slicer_(map, path), collapse_(collapse)
{
    cfva_assert(map.moduleBits() == cfg.m,
                "mapping has 2^", map.moduleBits(),
                " modules but config expects 2^", cfg.m);
}

AccessResult
EventDrivenMemorySystem::run(const std::vector<Request> &stream,
                             DeliveryArena *arena,
                             const ModuleId *premapped)
{
    AccessResult result;
    if (arena)
        result.deliveries = arena->acquire(stream.size());
    else
        result.deliveries.reserve(stream.size());
    if (stream.empty()) {
        result.conflictFree = true;
        return result;
    }

    // Premap the whole stream before stepping: bit-sliced for linear
    // mappings, scalar otherwise.
    const ModuleId *mods = premapped;
    if (!mods) {
        mods_.resize(stream.size());
        slicer_.mapWith(
            [&stream](std::size_t i) { return stream[i].addr; },
            stream.size(), mods_.data());
        mods = mods_.data();
    }

    // One pass answers every stream: memo replay, or the stepper
    // with the recurrence jump on (stepping on to the end when the
    // state never recurs), or plain stepping with collapse off.
    if (collapse_ == CollapseMode::On) {
        tryFastPath(cfg_, stream, mods, stepper_, memo_, fast_, result,
                    true, Recurrence::JumpOrFinish);
    } else {
        stepper_.run(cfg_, stream, mods, Recurrence::Off, true, false,
                     result);
    }
    return result;
}

AccessResult
simulateAccessEventDriven(const MemConfig &cfg,
                          const ModuleMapping &map,
                          const std::vector<Request> &stream,
                          DeliveryArena *arena)
{
    EventDrivenMemorySystem sys(cfg, map);
    return sys.run(stream, arena);
}

} // namespace cfva
