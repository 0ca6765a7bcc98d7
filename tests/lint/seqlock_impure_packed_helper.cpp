// Known-bad fixture for scripts/concurrency_lint.py (never compiled).
//
// Two ways the packed-probe refactor can leak plain loads into the
// optimistic path. First, a probe helper marked as running inside
// callers' seqlock read sections (utlb-lint: seqlock-read-helper)
// reads the packed cold fields directly and refreshes a recency
// stamp -- data races for a helper the seqlock no longer protects
// with a version check at each access. Second, a reader calls the
// plain-load probe flavor (probePacked<DirectLoads>, which issues
// non-atomic loads) between readBegin() and readRetry() instead of
// the RelaxedLoads flavor.
//
// utlb-lint-expect: seqlock-read-section

#include <cstdint>

struct Cold {
    unsigned pid;
    std::uint64_t vpn;
    std::uint64_t pfn;
    std::uint64_t lastUse;
};

struct SeqCount {
    std::uint32_t readBegin() const;
    bool readRetry(std::uint32_t) const;
};

struct DirectLoads {};
struct RelaxedLoads {};

template <class Loads>
unsigned probePacked(std::size_t set, unsigned pid, std::uint64_t vpn,
                     std::uint64_t key, unsigned &way,
                     std::uint64_t &pfn);

std::uint64_t loadRelaxed(const std::uint64_t &);

bool
helperReadsPlain(Cold &c, unsigned pid, std::uint64_t vpn,
                 std::uint64_t &pfn, std::uint64_t stamp)
{
    // utlb-lint: seqlock-read-helper
    // BAD: plain reads of seqlock-paired fields in a helper that
    // runs inside callers' read sections.
    if (c.pid != pid || c.vpn != vpn)
        return false;
    pfn = c.pfn;
    // BAD: a member write -- an optimistic reader mutating state.
    c.lastUse = stamp;
    return true;
}

std::uint64_t
probeWithPlainLoads(SeqCount &seq, std::size_t set, unsigned pid,
                    std::uint64_t vpn, std::uint64_t key)
{
    for (;;) {
        std::uint32_t v = seq.readBegin();
        unsigned way = 0;
        std::uint64_t pfn = 0;
        // BAD: the plain-load probe flavor inside the read section;
        // it issues non-atomic loads.
        probePacked<DirectLoads>(set, pid, vpn, key, way, pfn);
        if (!seq.readRetry(v))
            return pfn;
    }
}
