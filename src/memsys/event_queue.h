/**
 * @file
 * The event heap of the event-driven stepper (memsys/event_driven.h).
 *
 * BasicModuleEventHeap is an indexed d-ary min-heap of per-module
 * timestamped events, at most one live event per module, ordered by
 * (cycle, module id).  The stepper uses it for module-ready (service
 * completion) events and for each port's return-bus arbitration over
 * output-buffer heads, whose tie-break — oldest ready first, lowest
 * module number on ties — is exactly the heap order.
 * ModuleEventHeap fixes the arity at 4: the heaps are push-heavy
 * (every service completion is a push, but only the minimum is ever
 * popped per cycle), and a wider node trades the rarely-exercised
 * pop's extra comparisons for a sift-up that is half as deep and for
 * node children that share a cache line.  Pop order is
 * arity-invariant — (time, module) is a total order, so every arity
 * returns the same sequence (property-tested in
 * tests/test_collapse.cc).  Request-bus arrivals need no queue: every
 * issue wakes the very next cycle, so the arrivals pending at any
 * cycle are just the requests issued on the one before it.
 */

#ifndef CFVA_MEMSYS_EVENT_QUEUE_H
#define CFVA_MEMSYS_EVENT_QUEUE_H

#include <cstdint>
#include <vector>

#include "common/bits.h"
#include "common/logging.h"

namespace cfva {

/** One timestamped per-module event. */
struct ModuleEvent
{
    Cycle time = 0;
    ModuleId module = 0;
};

/**
 * Indexed d-ary min-heap of ModuleEvents keyed by (time, module).
 *
 * The index (module id -> heap slot) makes membership a O(1) lookup
 * and guarantees the single-event-per-module invariant cheaply,
 * which is what keeps the engine's bookkeeping honest: a module is
 * either awaiting retirement (one heap entry) or blocked on a full
 * output buffer (a flag), never both.
 */
template <unsigned Arity>
class BasicModuleEventHeap
{
    static_assert(Arity >= 2, "a heap needs at least two children");

  public:
    /** Builds an empty heap able to hold @p modules module ids. */
    explicit BasicModuleEventHeap(ModuleId modules)
        : pos_(modules, kAbsent)
    {
        heap_.reserve(modules);
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /** True iff @p module has a live event. */
    bool
    contains(ModuleId module) const
    {
        return pos_[module] != kAbsent;
    }

    /** The earliest event; heap must be nonempty. */
    const ModuleEvent &
    top() const
    {
        cfva_assert(!heap_.empty(), "top() on an empty event heap");
        return heap_.front();
    }

    /** Removes and returns the earliest event. */
    ModuleEvent
    pop()
    {
        cfva_assert(!heap_.empty(), "pop() on an empty event heap");
        const ModuleEvent min = heap_.front();
        pos_[min.module] = kAbsent;
        const ModuleEvent last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) {
            heap_.front() = last;
            pos_[last.module] = 0;
            siftDown(0);
        }
        return min;
    }

    /**
     * Adds an event for @p module at @p time.  The module must not
     * already have a live event.
     */
    void
    push(ModuleId module, Cycle time)
    {
        cfva_assert(module < pos_.size(), "event for module ", module,
                    " outside the heap's ", pos_.size(), " modules");
        cfva_assert(!contains(module), "module ", module,
                    " already has a live event");
        heap_.push_back({time, module});
        pos_[module] = static_cast<std::uint32_t>(heap_.size() - 1);
        siftUp(heap_.size() - 1);
    }

    /** Adds @p delta to every event's time.  A uniform shift keeps
     *  the (time, module) order, so the heap stays valid. */
    void
    shiftTimes(Cycle delta)
    {
        for (auto &e : heap_)
            e.time += delta;
    }

    /** Drops every event. */
    void
    clear()
    {
        for (const auto &e : heap_)
            pos_[e.module] = kAbsent;
        heap_.clear();
    }

  private:
    static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

    static bool
    before(const ModuleEvent &a, const ModuleEvent &b)
    {
        return a.time != b.time ? a.time < b.time
                                : a.module < b.module;
    }

    void
    place(std::size_t i, const ModuleEvent &e)
    {
        heap_[i] = e;
        pos_[e.module] = static_cast<std::uint32_t>(i);
    }

    void
    siftUp(std::size_t i)
    {
        const ModuleEvent e = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / Arity;
            if (!before(e, heap_[parent]))
                break;
            place(i, heap_[parent]);
            i = parent;
        }
        place(i, e);
    }

    void
    siftDown(std::size_t i)
    {
        const ModuleEvent e = heap_[i];
        const std::size_t n = heap_.size();
        for (;;) {
            const std::size_t first = Arity * i + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t last =
                first + Arity < n ? first + Arity : n;
            for (std::size_t c = first + 1; c < last; ++c)
                if (before(heap_[c], heap_[best]))
                    best = c;
            if (!before(heap_[best], e))
                break;
            place(i, heap_[best]);
            i = best;
        }
        place(i, e);
    }

    std::vector<ModuleEvent> heap_;
    std::vector<std::uint32_t> pos_; //!< module id -> heap slot
};

/** The stepper's event heap (see the file comment for why 4-ary). */
using ModuleEventHeap = BasicModuleEventHeap<4>;

} // namespace cfva

#endif // CFVA_MEMSYS_EVENT_QUEUE_H
