// Known-bad fixture for scripts/concurrency_lint.py (never compiled).
//
// A concurrent lock policy whose hooks are named for the shared
// operation bodies that call them (no *MT suffix), so only the
// mt-shard-scope marker holds them to the shard discipline. One hook
// bumps a shared stat counter and another stamps from the raw use
// clock: both race every other worker.
//
// utlb-lint-expect: mt-shard-discipline

#include <cstdint>

struct Shard {
    std::uint64_t hits = 0;
};

struct Counter {
    std::uint64_t v = 0;
    Counter &operator++() { ++v; return *this; }
};

struct FakeCache {
    Counter statHits;
    std::uint64_t useClock = 0;
};

struct Striped {
    FakeCache &c;
    Shard *sh;

    // utlb-lint: mt-shard-scope

    void hit()
    {
        ++c.statHits; // BAD: the shared counter, not sh->hits
    }

    std::uint64_t stamp()
    {
        return ++c.useClock; // BAD: not a nextStamp(sh) block
    }
};
