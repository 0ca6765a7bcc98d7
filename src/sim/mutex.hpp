/**
 * @file
 * Capability-annotated mutex wrappers.
 *
 * libstdc++'s std::mutex and std::lock_guard carry no clang
 * thread-safety annotations, so acquisitions through them are
 * invisible to the analysis: a UTLB_GUARDED_BY field locked with
 * std::lock_guard would warn on every correct access. These thin
 * wrappers restore visibility — sim::Mutex is an annotated
 * capability, sim::LockGuard the scoped holder the analysis tracks.
 * Project rule (enforced by scripts/concurrency_lint.py): code under
 * src/ uses these, never a bare std::mutex.
 *
 * sim::Mutex also spins briefly before it parks: the critical
 * sections it guards here (a driver ioctl body, a pin-budget update)
 * run for a few hundred cycles, while a futex sleep and wake costs
 * several thousand, so a waiter that parks waits far longer than the
 * holder holds (docs/performance.md, "Driver mutex: spin, then
 * park").
 */

#ifndef UTLB_SIM_MUTEX_HPP
#define UTLB_SIM_MUTEX_HPP

#include <atomic>
#include <cstdint>
#include <mutex>

#include "sim/annotations.hpp"
#include "sim/spinlock.hpp"

namespace utlb::sim {

/**
 * A std::mutex the thread-safety analysis can see, which spins a
 * bounded number of try_lock() attempts before parking the waiter.
 *
 * Two relaxed counters record contention where it happens, touched
 * only on the slow path: contended() counts lock() calls whose first
 * try_lock() failed, parked() those whose spin ran out and fell back
 * to the blocking lock. An uncontended lock() is one try_lock() and
 * touches neither.
 *
 * A Mutex fills its own cache line. Each spinning try_lock() takes
 * the line exclusive, so a field declared next to the mutex would
 * move to the waiter's core with it, and the holder would miss on
 * that field while it works.
 */
class alignas(64) UTLB_CAPABILITY("mutex") Mutex
{
  public:
    /**
     * try_lock() attempts before a contended lock() parks. With a
     * pause between attempts, 256 of them last about 5 us on a
     * 4-core AVX2 VM, about twice the ~2.3 us a parked waiter waited
     * there, so a waiter never spins much longer than parking would
     * have cost it. Measured on perfbench mt_shared when its two
     * workers still shared one driver mutex: parking at once never
     * left the slow regime, any bound from 64 to 4096 halved wall
     * time per probe in a third to a half of the runs, and an
     * unbounded spin did not (docs/performance.md has the runs).
     */
    static constexpr unsigned kSpinAttempts = 256;

    Mutex() = default;

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() UTLB_ACQUIRE()
    {
        if (m.try_lock())
            return;
        contendedCount.fetch_add(1, std::memory_order_relaxed);
        for (unsigned i = 0; i < kSpinAttempts; ++i) {
            cpuRelax();
            if (m.try_lock())
                return;
        }
        parkedCount.fetch_add(1, std::memory_order_relaxed);
        m.lock();
    }

    void
    unlock() UTLB_RELEASE()
    {
        m.unlock();
    }

    [[nodiscard]] bool
    try_lock() UTLB_TRY_ACQUIRE(true)
    {
        return m.try_lock();
    }

    /**
     * Tell the static analysis the caller holds this mutex through a
     * scope it cannot see into (a sim::LockGuard member of an object
     * the caller owns). No runtime check.
     */
    void assertHeld() const UTLB_ASSERT_CAPABILITY(this) {}

    /** lock() calls that found the mutex held (lifetime count). */
    std::uint64_t
    contended() const
    {
        return contendedCount.load(std::memory_order_relaxed);
    }

    /** Contended lock() calls that parked after the spin. */
    std::uint64_t
    parked() const
    {
        return parkedCount.load(std::memory_order_relaxed);
    }

  private:
    std::mutex m;
    std::atomic<std::uint64_t> contendedCount{0};
    std::atomic<std::uint64_t> parkedCount{0};
};

/** Scoped Mutex holder (the annotated std::lock_guard). */
class UTLB_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &m) UTLB_ACQUIRE(m) : mu(&m)
    {
        mu->lock();
    }

    ~LockGuard() UTLB_RELEASE() { mu->unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex *mu;
};

/**
 * A guard that holds either one Mutex or nothing — the conditional
 * acquisition PinManager::guard() hands out (locking is opt-in
 * there; single-threaded callers pay no lock).
 *
 * Conditional locking is outside what the static analysis can
 * model, so the ctor/dtor are UTLB_NO_THREAD_SAFETY_ANALYSIS: the
 * discipline that matters — entry points take the guard, *Impl
 * internals never re-acquire — is documented at the use site and
 * covered by the concurrency lint's scoped-guard rule instead.
 */
class OptionalLockGuard
{
  public:
    /** Empty guard: holds (and will release) nothing. */
    OptionalLockGuard() = default;

    /** Locks @p m if non-null. Invisible to the analysis (above). */
    explicit OptionalLockGuard(Mutex *m) UTLB_NO_THREAD_SAFETY_ANALYSIS
        : mu(m)
    {
        if (mu)
            mu->lock();
    }

    ~OptionalLockGuard() UTLB_NO_THREAD_SAFETY_ANALYSIS
    {
        if (mu)
            mu->unlock();
    }

    OptionalLockGuard(const OptionalLockGuard &) = delete;
    OptionalLockGuard &operator=(const OptionalLockGuard &) = delete;

  private:
    Mutex *mu = nullptr;
};

} // namespace utlb::sim

#endif // UTLB_SIM_MUTEX_HPP
