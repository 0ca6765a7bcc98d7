// Known-bad fixture for scripts/concurrency_lint.py (never compiled).
//
// A per-stripe lock array with no padding. sim::Spinlock is one byte,
// so 64 of these share a cache line: two workers taking different
// stripes still bounce that line between their cores on every
// acquisition, and the striping buys no parallelism.
//
// utlb-lint-expect: padded-lock-array

#include <memory>

#include "sim/mutex.hpp"
#include "sim/spinlock.hpp"

struct StripedTable {
    // BAD: one byte per lock, all stripes on one cache line.
    std::unique_ptr<utlb::sim::Spinlock[]> stripes;

    // BAD: the same as a fixed array of mutexes.
    utlb::sim::Mutex bucketLocks[16];

    // GOOD: one cache line per lock.
    std::unique_ptr<utlb::sim::CachePadded<utlb::sim::Spinlock>[]>
        padded;
};
