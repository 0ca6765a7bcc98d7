/**
 * @file
 * Discrete-event simulation queue.
 *
 * The NIC model, network links, and the VMMC firmware loop are all
 * driven from one EventQueue. Events with equal timestamps fire in
 * insertion order (a stable priority queue), which keeps firmware
 * command processing deterministic when several processes post
 * commands in the same tick.
 *
 * Callbacks are move-only and stored inline when they fit, so an
 * event that carries a whole packet (a network delivery, a firmware
 * fragment hand-off) is scheduled, ordered and fired without a heap
 * allocation or a copy of its payload.
 */

#ifndef UTLB_SIM_EVENT_QUEUE_HPP
#define UTLB_SIM_EVENT_QUEUE_HPP

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/test_tamper.hpp"
#include "sim/types.hpp"

namespace utlb::check {
class AuditReport;
} // namespace utlb::check

namespace utlb::sim {

/**
 * A move-only `void()` callable with small-buffer storage.
 *
 * A callable of at most kInlineBytes (with a non-throwing move) lives
 * inside the EventFn; a larger one is moved to the heap. Moving an
 * EventFn moves the callable; nothing ever copies it.
 */
class EventFn
{
  public:
    /** Inline capacity: room for a network delivery, i.e. a lambda
     *  holding a pointer, a node id and a whole net::Packet. */
    static constexpr std::size_t kInlineBytes = 112;

    /** True if a callable of type @p F is stored without allocating. */
    template <class F>
    static constexpr bool storedInline =
        sizeof(F) <= kInlineBytes
        && alignof(F) <= alignof(std::max_align_t)
        && std::is_nothrow_move_constructible_v<F>;

    EventFn() = default;

    template <class F,
              class D = std::decay_t<F>,
              class = std::enable_if_t<!std::is_same_v<D, EventFn>
                                       && std::is_invocable_v<D &>>>
    EventFn(F &&f) // NOLINT: implicit, like std::function
    {
        if constexpr (storedInline<D>) {
            ::new (static_cast<void *>(buf)) D(std::forward<F>(f));
            ops = &inlineOps<D>;
        } else {
            ::new (static_cast<void *>(buf)) D *(new D(std::forward<F>(f)));
            ops = &heapOps<D>;
        }
    }

    EventFn(EventFn &&o) noexcept : ops(o.ops)
    {
        if (ops) {
            ops->relocate(buf, o.buf);
            o.ops = nullptr;
        }
    }

    EventFn &
    operator=(EventFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            if (o.ops) {
                o.ops->relocate(buf, o.buf);
                ops = o.ops;
                o.ops = nullptr;
            }
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    /** Invoke the callable. @pre *this holds one. */
    void operator()() { ops->invoke(buf); }

  private:
    struct Ops {
        void (*invoke)(void *self);
        /** Move-construct into @p dst and destroy the source. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *self) noexcept;
    };

    template <class F>
    static constexpr Ops inlineOps{
        [](void *s) { (*static_cast<F *>(s))(); },
        [](void *d, void *s) noexcept {
            F &src = *static_cast<F *>(s);
            ::new (d) F(std::move(src));
            src.~F();
        },
        [](void *s) noexcept { static_cast<F *>(s)->~F(); },
    };

    template <class F>
    static constexpr Ops heapOps{
        [](void *s) { (**static_cast<F **>(s))(); },
        [](void *d, void *s) noexcept {
            ::new (d) F *(*static_cast<F **>(s));
        },
        [](void *s) noexcept { delete *static_cast<F **>(s); },
    };

    void
    reset()
    {
        if (ops) {
            ops->destroy(buf);
            ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
    const Ops *ops = nullptr;
};

/**
 * A stable discrete-event queue with an integral tick clock.
 *
 * Usage: schedule() callbacks at absolute times or after() delays,
 * then run() until the queue drains (or runUntil() a horizon). The
 * current simulated time is now().
 *
 * The heap orders small (when, seq, slot) records; the callables sit
 * still in a slot array (freed slots are reused), so sifting never
 * moves a callback. One is moved into its slot when scheduled and out
 * of it when it fires.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /** Number of events not yet fired. */
    std::size_t pending() const { return heap.size(); }

    /** Total number of events ever fired. */
    std::uint64_t fired() const { return numFired; }

    /**
     * Schedule @p fn at absolute time @p when.
     *
     * @pre when >= now(); scheduling in the past is a logic error.
     */
    void schedule(Tick when, EventFn fn);

    /** Schedule @p fn @p delay ticks after the current time. */
    void
    after(Tick delay, EventFn fn)
    {
        schedule(curTick + delay, std::move(fn));
    }

    /**
     * Run events until the queue is empty.
     * @return the time of the last fired event.
     */
    Tick run();

    /**
     * Run events with timestamps <= @p horizon.
     *
     * Advances now() to @p horizon even if the queue drains early, so
     * repeated calls form a monotonic timeline.
     * @return the number of events fired.
     */
    std::uint64_t runUntil(Tick horizon);

    /** Fire exactly one event, if any. @return true if one fired. */
    bool step();

    /** Drop all pending events (does not rewind the clock). */
    void clear();

    /**
     * Invariant auditor: time monotonicity — no pending event may be
     * older than the current tick, and the sequence/fired counters
     * and the callable slots must be mutually consistent.
     */
    void audit(check::AuditReport &report) const;

  private:
    friend struct check::TestTamper;

    struct Entry {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;  //!< index into fns
    };

    /** Heap order: the root is the earliest (when, seq). */
    struct Later {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::vector<Entry> heap;
    std::vector<EventFn> fns;              //!< callables by slot
    std::vector<std::uint32_t> freeSlots;  //!< empty slots in fns
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numFired = 0;
};

} // namespace utlb::sim

#endif // UTLB_SIM_EVENT_QUEUE_HPP
