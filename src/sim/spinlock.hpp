/**
 * @file
 * A minimal test-and-test-and-set spinlock, plus the seqlock version
 * counter that pairs with it.
 *
 * The spinlock guards the striped per-set write paths of the
 * concurrent Shared UTLB-Cache: critical sections there are a handful
 * of loads and stores on one cache line, far below the cost of
 * parking a thread, so spinning beats std::mutex. The relaxed re-test
 * loop keeps the waiting thread reading its local cache copy instead
 * of hammering the lock line with RMW traffic.
 *
 * SeqCount is the read-side complement: a per-set version counter in
 * the classic seqlock protocol, letting lookups read a set's ways
 * with no lock at all and retry when a writer was active (odd
 * version) or intervened (changed version).
 */

#ifndef UTLB_SIM_SPINLOCK_HPP
#define UTLB_SIM_SPINLOCK_HPP

#include <atomic>
#include <cstdint>

#include "sim/annotations.hpp"

namespace utlb::sim {

/** The spin-wait hint: a `pause` on x86, nothing elsewhere. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/**
 * A T on its own 64-byte cache line. Locks or counters that sit in
 * an array indexed by keys different workers own must be padded, or
 * neighbouring elements share a line and every write by one worker
 * invalidates the others' copies (false sharing). The concurrency
 * lint's `padded-lock-array` rule flags unpadded lock arrays.
 */
template <typename T>
struct alignas(64) CachePadded {
    T value;
};

class UTLB_CAPABILITY("spinlock") Spinlock
{
  public:
    Spinlock() = default;

    Spinlock(const Spinlock &) = delete;
    Spinlock &operator=(const Spinlock &) = delete;

    void
    lock() UTLB_ACQUIRE()
    {
        while (flag.test_and_set(std::memory_order_acquire)) {
            while (flag.test(std::memory_order_relaxed))
                cpuRelax();
        }
    }

    void
    unlock() UTLB_RELEASE()
    {
        flag.clear(std::memory_order_release);
    }

    /**
     * One lock attempt, no spinning: true iff the lock was taken.
     * [[nodiscard]] so a discarded result — which would leave the
     * caller unsure whether it holds the lock — is a compile error;
     * the concurrency lint's scoped-guard rule relies on that.
     */
    [[nodiscard]] bool
    try_lock() UTLB_TRY_ACQUIRE(true)
    {
        return !flag.test_and_set(std::memory_order_acquire);
    }

  private:
    // Default construction leaves the flag clear since C++20
    // (ATOMIC_FLAG_INIT is deprecated and gone in C++23).
    std::atomic_flag flag;
};

/** Scoped Spinlock holder. */
class UTLB_SCOPED_CAPABILITY SpinGuard
{
  public:
    explicit SpinGuard(Spinlock &l) UTLB_ACQUIRE(l) : lk(&l)
    {
        lk->lock();
    }

    ~SpinGuard() UTLB_RELEASE() { lk->unlock(); }

    SpinGuard(const SpinGuard &) = delete;
    SpinGuard &operator=(const SpinGuard &) = delete;

  private:
    Spinlock *lk;
};

/**
 * A seqlock version counter (Boehm, "Can seqlocks get along with
 * programming language memory models?", MSPC 2012).
 *
 * Writers — who must already be serialized against each other, here
 * by the owning structure's stripe Spinlock — bracket their stores
 * with writeBegin()/writeEnd(), leaving the version odd for exactly
 * the duration of the write. Readers snapshot the version, read the
 * protected fields with relaxed atomic accesses, and retry if the
 * version was odd or moved. The protected fields themselves must be
 * accessed through std::atomic_ref on both sides: the seqlock makes
 * torn snapshots *detectable*, the atomics make the racing accesses
 * defined (and ThreadSanitizer-clean).
 *
 * The read-side purity rule — between readBegin() and readRetry() a
 * section performs relaxed atomic loads only: no stores, no member
 * writes, no stronger memory orders — cannot be expressed with
 * capability annotations; scripts/concurrency_lint.py enforces it
 * statically (rule `seqlock-read-section`).
 */
class SeqCount
{
  public:
    SeqCount() = default;

    SeqCount(const SeqCount &) = delete;
    SeqCount &operator=(const SeqCount &) = delete;

    /**
     * Snapshot the version before an optimistic read. An odd result
     * means a writer is mid-update; the caller may still perform the
     * (atomic) data reads, but readRetry() will send it around again.
     */
    std::uint32_t
    readBegin() const
    {
        return v.load(std::memory_order_acquire);
    }

    /** True if the optimistic read that started at @p begin is torn
     *  (writer active or intervened) and must be retried. */
    bool
    readRetry(std::uint32_t begin) const
    {
        std::atomic_thread_fence(std::memory_order_acquire);
        return (begin & 1u) != 0
            || v.load(std::memory_order_relaxed) != begin;
    }

    /**
     * The current version. Stable — and guaranteed even — only while
     * the caller holds the lock that serializes this counter's
     * writers; used to stamp version-carrying references minted
     * under that lock.
     */
    std::uint32_t
    value() const
    {
        return v.load(std::memory_order_relaxed);
    }

    /** Enter a write section. @pre the writer lock is held. */
    void
    writeBegin()
    {
        v.store(v.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_release);
    }

    /** Leave a write section. @pre the writer lock is held. */
    void
    writeEnd()
    {
        v.store(v.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
    }

  private:
    std::atomic<std::uint32_t> v{0};
};

} // namespace utlb::sim

#endif // UTLB_SIM_SPINLOCK_HPP
