/**
 * @file
 * The executable spec: a flat model of what a UTLB translation must
 * return and cost (docs/checking.md, "The executable spec"). It uses
 * none of the library's machinery (no SharedUtlbCache, PinManager,
 * UtlbDriver or ReplacementPolicy), only the NicTimings / HostCosts
 * parameter tables: each tenant's pinned pages are a map from page to
 * last access, the Shared UTLB-Cache a flat array of ways with
 * last-access stamps. The frame behind a page is the host OS's
 * business, so translations ask the caller for it.
 */

#ifndef UTLB_TESTS_SPEC_UTLB_SPEC_HPP
#define UTLB_TESTS_SPEC_UTLB_SPEC_HPP

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/cost_model.hpp"
#include "core/replacement.hpp"
#include "core/translation_table.hpp"
#include "core/utlb.hpp"
#include "mem/page.hpp"
#include "nic/timing.hpp"

namespace utlb::spec {

/**
 * One step of a workload. Translate: a = va, b = nbytes; Release:
 * a = vpn; Lock and Unlock: a = first page, b = pages. A lock is
 * taken the way a send takes it: translate pages [a, a + b) and, if
 * that succeeds, send-lock them; an unlock drops one such lock.
 */
struct Op {
    enum Kind : std::uint8_t { Attach, Teardown, Translate, Release,
                               Lock, Unlock };
    Kind kind;
    mem::ProcId pid;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/** One point of the stack's parameter space. */
struct Case {
    std::size_t entries = 1024;
    unsigned assoc = 1;
    std::size_t prefetch = 1;  //!< entries fetched per miss
    std::size_t memLimit = 0;  //!< pin budget in pages, 0 = none
    core::PolicyKind policy = core::PolicyKind::Lru;
    std::size_t prepin = 1;    //!< pre-pin run length (§6.5)
    std::uint64_t seed = 1;    //!< seeds the op list and RANDOM
    bool oneView = false;      //!< the op list keeps tenant 1's ops only
};

class Oracle
{
  public:
    using FrameOf = std::function<mem::Pfn(mem::ProcId, mem::Vpn)>;

    /**
     * The spec of @p c's LRU or MRU pin policy. @p stampBlock 0 is one
     * recency clock for the cache (the Unlocked lock policy); else each
     * view draws stamps in blocks of that many from the shared clock
     * (the Striped policy), so LRU order holds within a block only.
     */
    Oracle(const Case &c, bool offsetting, std::uint64_t stampBlock,
           const nic::NicTimings &timings, const core::HostCosts &costs)
        : m(c), offsetting(offsetting), stampBlock(stampBlock),
          mru(c.policy == core::PolicyKind::Mru), t(timings), h(costs),
          sets(c.entries / c.assoc), ways(c.entries)
    {}

    /**
     * What @p op returns: a translation, or for a release whether the
     * page was pinned (in `ok`). The caller skips ops the library's
     * callers would not make: an op on a pid that is not attached, an
     * attach of one that is, an unlock of a lock not held, a release
     * of a send-locked page.
     */
    core::Translation
    apply(const Op &op, const FrameOf &frameOf)
    {
        core::Translation tr;
        switch (op.kind) {
        case Op::Attach:
            procs[op.pid];
            break;
        case Op::Teardown:
            procs.erase(op.pid);
            for (Way &w : ways) {
                if (w.valid && w.pid == op.pid) {
                    w.valid = false;
                    ++count.invalidations;
                }
            }
            break;
        case Op::Translate: {
            const std::size_t n = mem::pagesSpanned(op.a, op.b);
            const mem::Vpn start = mem::pageOf(op.a);
            if (n == 0 || !ensurePinned(op.pid, start, n, tr))
                break;
            for (mem::Vpn v = start; v < start + n; ++v) {
                tr.nicCost += nicTranslate(op.pid, v, v - start, tr);
                tr.pageAddrs.push_back(mem::frameAddr(frameOf(op.pid, v)));
            }
            break;
        }
        case Op::Release:
            tr.ok = procs.at(op.pid).pinned.erase(op.a) != 0;
            if (tr.ok)
                invalidate(op.pid, op.a);
            break;
        case Op::Lock:
            tr = apply({Op::Translate, op.pid, op.a * mem::kPageSize,
                        op.b * mem::kPageSize},
                       frameOf);
            for (mem::Vpn v = op.a; tr.ok && v < op.a + op.b; ++v)
                ++procs.at(op.pid).locks[v];
            break;
        case Op::Unlock:
            for (mem::Vpn v = op.a; v < op.a + op.b; ++v) {
                auto &locks = procs.at(op.pid).locks;
                if (--locks[v] == 0)
                    locks.erase(v);
            }
            break;
        }
        return tr;
    }

    /** The cache's lifetime counters, by SharedUtlbCache's names. */
    struct Counts {
        std::uint64_t hits = 0, misses = 0, insertions = 0, refreshes = 0,
                      evictions = 0, crossTenantEvictions = 0,
                      invalidations = 0;
    };

    const Counts &counts() const { return count; }

  private:
    /** A pinning process: page -> last access, page -> send locks. */
    struct Proc {
        std::map<mem::Vpn, std::uint64_t> pinned;
        std::map<mem::Vpn, unsigned> locks;
        std::uint64_t clock = 0;
        std::uint64_t stampNext = 0, stampEnd = 0;  //!< cache recency
    };

    /** One cache way (SNIPPETS.md's tlb_entry_t). */
    struct Way {
        bool valid = false;
        mem::ProcId pid = 0;
        mem::Vpn vpn = 0;
        std::uint64_t lastAccess = 0;
    };

    // ---- host half: §3.4 pinning ---------------------------------------

    bool
    ensurePinned(mem::ProcId pid, mem::Vpn start, std::size_t n,
                 core::Translation &tr)
    {
        Proc &p = procs.at(pid);
        auto pinned = [&](mem::Vpn v) { return p.pinned.count(v) != 0; };
        // Table 1's check: its minimum when the first page is unpinned,
        // else its maximum over the pages scanned (up to and including
        // the first unpinned one).
        std::size_t first = 0;
        while (first < n && pinned(start + first))
            ++first;
        tr.hostCost = first == 0 ? h.checkCostMin(n)
                                 : h.checkCostMax(std::min(first + 1, n));
        tr.checkMiss = first < n;
        for (std::size_t i = first; i < n;) {
            // Each unpinned run is pinned by one ioctl, stretched to
            // the pre-pin length but stopping at a pinned page.
            std::size_t run = 1;
            if (pinned(start + i)) {
                p.pinned[start + i] = ++p.clock;
            } else {
                while (run < std::max(n - i, m.prepin)
                       && !pinned(start + i + run))
                    ++run;
                if (!pinRun(p, pid, start + i, run, start, n, tr))
                    return tr.ok = false;
            }
            i += run;
        }
        for (std::size_t i = 0; i < n; ++i)
            p.pinned[start + i] = ++p.clock;
        return true;
    }

    bool
    pinRun(Proc &p, mem::ProcId pid, mem::Vpn vpn, std::size_t run,
           mem::Vpn reqStart, std::size_t reqLen, core::Translation &tr)
    {
        // Unpin one victim per ioctl until the run fits the budget:
        // the least (LRU) or most (MRU) recently used page that is
        // neither send-locked (§3.1) nor part of the request.
        while (m.memLimit != 0 && p.pinned.size() + run > m.memLimit) {
            auto victim = p.pinned.end();
            for (auto it = p.pinned.begin(); it != p.pinned.end(); ++it) {
                if ((it->first >= reqStart && it->first < reqStart + reqLen)
                    || p.locks.count(it->first))
                    continue;
                if (victim == p.pinned.end()
                    || (mru ? it->second > victim->second
                              : it->second < victim->second))
                    victim = it;
            }
            if (victim == p.pinned.end())
                return false;
            tr.hostCost += h.unpinCost(1);
            tr.unpinCost += h.unpinCost(1);
            ++tr.unpinIoctls;
            ++tr.pagesUnpinned;
            invalidate(pid, victim->first);
            p.pinned.erase(victim);
        }
        tr.hostCost += h.pinCost(run);
        tr.pinCost += h.pinCost(run);
        ++tr.pinIoctls;
        tr.pagesPinned += run;
        for (std::size_t i = 0; i < run; ++i)
            p.pinned[vpn + i] = ++p.clock;
        return true;
    }

    // ---- NIC half: the §3.2 Shared UTLB-Cache -------------------------

    /** The set's first way: the index offset by Knuth's constant
     *  times the pid. */
    Way *
    setOf(mem::ProcId pid, mem::Vpn vpn)
    {
        std::uint64_t key = vpn;
        if (offsetting)
            key += static_cast<std::uint64_t>(pid) * 2654435761ull;
        return &ways[key % sets * m.assoc];
    }

    /** The way holding (pid, vpn), or null. */
    Way *
    find(mem::ProcId pid, mem::Vpn vpn)
    {
        Way *set = setOf(pid, vpn);
        for (unsigned w = 0; w < m.assoc; ++w) {
            if (set[w].valid && set[w].pid == pid && set[w].vpn == vpn)
                return &set[w];
        }
        return nullptr;
    }

    void
    invalidate(mem::ProcId pid, mem::Vpn vpn)
    {
        if (Way *w = find(pid, vpn)) {
            w->valid = false;
            ++count.invalidations;
        }
    }

    std::uint64_t
    stamp(mem::ProcId pid)
    {
        Proc &p = procs.at(pid);
        if (stampBlock == 0)
            return ++useClock;
        if (p.stampNext == p.stampEnd) {
            p.stampNext = useClock + 1;
            useClock += stampBlock;
            p.stampEnd = useClock + 1;
        }
        return p.stampNext++;
    }

    /** A fill takes the lowest free way, else the set's LRU way; a
     *  prefetched neighbour (§6.4) leaves a resident line's recency
     *  alone. */
    void
    install(mem::ProcId pid, mem::Vpn vpn, bool demand)
    {
        ++count.insertions;
        Way *w = find(pid, vpn);
        if (!w) {
            Way *set = setOf(pid, vpn);
            w = std::find_if(set, set + m.assoc,
                             [](const Way &x) { return !x.valid; });
            if (w == set + m.assoc) {
                w = std::min_element(set, set + m.assoc,
                                     [](const Way &a, const Way &b) {
                                         return a.lastAccess < b.lastAccess;
                                     });
                ++count.evictions;
                count.crossTenantEvictions += w->pid != pid;
            }
            *w = Way{true, pid, vpn, 0};
        } else {
            ++count.refreshes;
            if (!demand)
                return;
        }
        w->lastAccess = stamp(pid);
    }

    /** Page @p page's NIC cost; a miss is recorded in @p tr. */
    sim::Tick
    nicTranslate(mem::ProcId pid, mem::Vpn vpn, std::size_t page,
                 core::Translation &tr)
    {
        // The firmware checks one way at a time (§6.3).
        Way *w = find(pid, vpn);
        const sim::Tick probes = w ? w - setOf(pid, vpn) + 1 : m.assoc;
        const sim::Tick probe =
            t.cacheHitCost + (probes - 1) * t.perWayProbeCost;
        if (w) {
            ++count.hits;
            w->lastAccess = stamp(pid);
            return probe;
        }
        ++count.misses;
        ++tr.niMisses;
        tr.missPages.push_back(static_cast<std::uint32_t>(page));
        // One DMA of up to `prefetch` entries, never past the page
        // table's leaf; every pinned entry of it installs.
        const std::size_t leaf = core::HostPageTable::kLeafEntries;
        const std::size_t width = std::min(m.prefetch, leaf - vpn % leaf);
        for (std::size_t i = 0; i < width; ++i) {
            if (procs.at(pid).pinned.count(vpn + i))
                install(pid, vpn + i, i == 0);
        }
        return probe + t.missHandleCost(width);
    }

    Case m;
    bool offsetting;
    std::uint64_t stampBlock;
    bool mru;
    const nic::NicTimings &t;
    const core::HostCosts &h;
    std::size_t sets;
    std::vector<Way> ways;
    std::uint64_t useClock = 0;
    std::map<mem::ProcId, Proc> procs;
    Counts count;
};

} // namespace utlb::spec

#endif // UTLB_TESTS_SPEC_UTLB_SPEC_HPP
