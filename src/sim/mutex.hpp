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
 */

#ifndef UTLB_SIM_MUTEX_HPP
#define UTLB_SIM_MUTEX_HPP

#include <mutex>

#include "sim/annotations.hpp"

namespace utlb::sim {

/** A std::mutex the thread-safety analysis can see. */
class UTLB_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() UTLB_ACQUIRE()
    {
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

  private:
    std::mutex m;
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
