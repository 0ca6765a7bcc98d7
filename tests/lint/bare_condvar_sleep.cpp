// Known-bad fixture for scripts/concurrency_lint.py (never compiled).
//
// A work-queue-style sleep built on a bare std::condition_variable.
// The condvar's lock handoff is invisible to the clang thread-safety
// analysis, so a waiter that re-reads guarded state after waking is
// unchecked; src/ code never sleeps on a condition.
//
// utlb-lint-expect: scoped-guard

#include <condition_variable>
#include <mutex>

struct BadQueue {
    std::mutex mu;
    // BAD: bare condvar; the analysis cannot tie the sleep to mu.
    std::condition_variable cv;
    int count = 0;

    void
    waitNonEmpty()
    {
        std::unique_lock<std::mutex> lk(mu);
        while (count == 0)
            cv.wait(lk);
    }
};
