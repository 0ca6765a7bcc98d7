/**
 * @file
 * The spec's generator (generate), runner (replay, check) and
 * shrinker (ddmin); docs/checking.md, "The executable spec".
 */

#ifndef UTLB_TESTS_SPEC_SPEC_RUNNER_HPP
#define UTLB_TESTS_SPEC_SPEC_RUNNER_HPP

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check/audit.hpp"
#include "core/driver.hpp"
#include "core/shared_cache.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "node_stack.hpp"
#include "sim/random.hpp"
#include "sim/tracer.hpp"
#include "spec/utlb_spec.hpp"

namespace utlb::spec {

/** Prints an op as the initializer that replays it. */
inline std::ostream &
operator<<(std::ostream &os, const Op &op)
{
    static const char *const kNames[] = {"Attach",  "Teardown", "Translate",
                                         "Release", "Lock",     "Unlock"};
    return os << "{Op::" << kNames[op.kind] << ", " << op.pid << ", 0x"
              << std::hex << op.a << std::dec << ", " << op.b << "}";
}

/**
 * @p c's random workload. Tenants 1 and 2 start attached; 3 lives
 * through the middle half of the run; 2 exits at the midpoint and
 * comes back under the same pid. Each step picks a live tenant and
 * translates a random unaligned span of a 512-page buffer (some
 * zero bytes long), releases a page, or takes or drops a send lock.
 */
inline std::vector<Op>
generate(const Case &c, std::size_t steps = 300)
{
    constexpr std::size_t kBufPages = 512;
    sim::Rng rng(c.seed ^ 0x5bec0de5ULL);
    std::vector<Op> ops{{Op::Attach, 1}, {Op::Attach, 2}};
    std::vector<mem::ProcId> live{1, 2};
    std::vector<Op> held;  // outstanding send locks
    auto join = [&](mem::ProcId pid) {
        ops.push_back({Op::Attach, pid});
        live.push_back(pid);
    };
    auto leave = [&](mem::ProcId pid) {
        ops.push_back({Op::Teardown, pid});
        std::erase(live, pid);
        std::erase_if(held, [&](const Op &l) { return l.pid == pid; });
    };
    for (std::size_t step = 0; step < steps; ++step) {
        if (step == steps / 4)
            join(3);
        if (step == steps / 2)
            leave(2);
        if (step == steps / 2 + steps / 16)
            join(2);
        if (step == 3 * steps / 4)
            leave(3);

        const mem::ProcId pid = live[rng.below(live.size())];
        const std::uint64_t r = rng.below(100);
        if (r < 8) {
            ops.push_back({Op::Release, pid, rng.below(kBufPages / 4)});
        } else if (r < 16) {
            held.push_back(
                {Op::Lock, pid, rng.below(kBufPages), 1 + rng.below(8)});
            ops.push_back(held.back());
        } else if (r < 22 && !held.empty()) {
            auto it = held.begin() + rng.below(held.size());
            ops.push_back({Op::Unlock, it->pid, it->a, it->b});
            held.erase(it);
        } else {
            // Repeated single pages, small windows and wide sweeps.
            mem::Vpn page = rng.below(kBufPages);
            std::size_t npages = 1 + rng.below(r < 60 ? 8 : 96);
            if (r < 40) {
                page = rng.below(8);
                npages = 1;
            }
            const std::uint64_t offset = rng.below(mem::kPageSize);
            std::size_t nbytes = npages * mem::kPageSize - offset
                - rng.below(mem::kPageSize - offset + 1);
            if (rng.below(16) == 0)
                nbytes = 0;
            ops.push_back({Op::Translate, pid,
                           page * mem::kPageSize + offset, nbytes});
        }
    }
    if (c.oneView)
        std::erase_if(ops, [](const Op &op) { return op.pid != 1; });
    return ops;
}

/** Which entry point a translation takes. */
enum class Walk : std::uint8_t {
    PerPage,  //!< translate: prepare, then nicTranslate page by page
    Batched,  //!< translateRange
    Mixed,    //!< the two in turn, on the same view
};

/** One path through the stack. */
struct Config {
    std::string_view name;
    Walk walk = Walk::PerPage;
    bool striped = false;  //!< UtlbConfig::concurrent, one thread
    bool traced = false;   //!< a sim::Tracer attached to every view
};

inline const Config kReference{"per-page/unlocked", Walk::PerPage};
inline const Config kStripedReference{"per-page/striped", Walk::PerPage,
                                      true};

/** Every configuration, references first. */
inline std::vector<Config>
matrix()
{
    return {
        kReference,
        kStripedReference,
        {"batched/unlocked", Walk::Batched},
        {"batched/striped", Walk::Batched, true},
        {"mixed/unlocked", Walk::Mixed},
        {"batched/unlocked+tracer", Walk::Batched, false, true},
    };
}

/** The configuration a run is held to besides the oracle. */
struct Base {
    const Config *cfg = nullptr;  //!< null: the oracle alone
    bool whole = true;  //!< each call and the stats tree, else each
                        //!< call's host half only
};

/**
 * @p cfg's base. A Striped view stamps recency from its own block of
 * the shared clock, so a lone one equals the Unlocked policy, but
 * once several views share an associative cache the Striped
 * configurations have their own reference. That one is held to the
 * reference on the host half (pinning does not read cache stamps).
 */
inline Base
baseOf(const Case &c, const Config &cfg)
{
    if (cfg.name == kReference.name)
        return {};
    if (!cfg.striped || c.assoc == 1 || c.oneView)
        return {&kReference};
    if (cfg.name == kStripedReference.name)
        return {&kReference, false};
    return {&kStripedReference};
}

/** A node stack and the tenants the ops attach to it. */
struct Stack : NodeStack {
    sim::Tracer tracer{1024};
    core::UtlbConfig view;
    Config cfg;
    std::map<mem::ProcId, Tenant> tenants;

    std::size_t calls = 0;  //!< translations made, for Walk::Mixed

    Stack(const Case &c, bool offsetting, const Config &config)
        : NodeStack({c.entries, c.assoc, offsetting}, 4096), cfg(config)
    {
        view.prefetchEntries = c.prefetch;
        view.pin = {c.memLimit, c.prepin, c.policy, c.seed};
        view.concurrent = cfg.striped;
    }

    core::Translation
    translate(Tenant &t, mem::VirtAddr va, std::size_t nbytes)
    {
        const bool batched = cfg.walk == Walk::Batched
            || (cfg.walk == Walk::Mixed && calls % 2 == 1);
        ++calls;
        return batched ? t.utlb->translateRange(va, nbytes)
                       : t.utlb->translate(va, nbytes);
    }

    /** Oracle::apply's contract, on the real stack. */
    core::Translation
    apply(const Op &op)
    {
        core::Translation tr;
        Tenant &t = tenants[op.pid];
        switch (op.kind) {
        case Op::Attach: {
            core::UtlbConfig v = view;
            v.pin.seed += op.pid;
            t = attach(op.pid, v);
            if (cfg.traced)
                t.utlb->setTracer(&tracer);
            break;
        }
        case Op::Teardown:
            t.utlb.reset();
            driver.unregisterProcess(op.pid);
            tenants.erase(op.pid);
            break;
        case Op::Translate:
            tr = translate(t, op.a, op.b);
            break;
        case Op::Release:
            tr.ok = t.utlb->pinManager().releasePage(op.a);
            break;
        case Op::Lock:
            tr = translate(t, op.a * mem::kPageSize, op.b * mem::kPageSize);
            if (tr.ok)
                t.utlb->pinManager().lockRange(op.a, op.b);
            break;
        case Op::Unlock:
            t.utlb->pinManager().unlockRange(op.a, op.b);
            break;
        }
        return tr;
    }

    std::string
    statsDump()
    {
        sim::StatGroup root{"stack"};
        for (sim::StatGroup *g : {&cache.stats(), &driver.stats(),
                                  &pins.stats(), &sram.stats()})
            root.adopt(*g);
        for (auto &[pid, t] : tenants) {
            t.utlb->flushShardStats();
            root.adopt(t.utlb->stats());
        }
        std::ostringstream os;
        root.dumpJson(os);
        return os.str();
    }
};

/**
 * The one field-list compare: the first field that differs, or "".
 * @p nic false skips the NIC half's costs and counts.
 */
inline std::string
diff(const core::Translation &want, const core::Translation &got,
     bool nic = true)
{
#define UTLB_SPEC_FIELDS(X)                                               \
    X(ok, false) X(pageAddrs, false) X(hostCost, false)                   \
    X(pinCost, false) X(unpinCost, false) X(checkMiss, false)             \
    X(pagesPinned, false) X(pagesUnpinned, false) X(pinIoctls, false)     \
    X(unpinIoctls, false) X(nicCost, true) X(niMisses, true)              \
    X(faults, true) X(missPages, true)
#define UTLB_SPEC_CMP(field, nicField)                                    \
    if ((nic || !(nicField)) && !(want.field == got.field))               \
        return #field ": want " + ::testing::PrintToString(want.field)    \
            + ", got " + ::testing::PrintToString(got.field);
    UTLB_SPEC_FIELDS(UTLB_SPEC_CMP)
#undef UTLB_SPEC_CMP
#undef UTLB_SPEC_FIELDS
    return {};
}

/** The first cache counter that differs from the oracle's, or "". */
inline std::string
diffCounts(const Oracle::Counts &want, const core::SharedUtlbCache &got)
{
#define UTLB_SPEC_COUNT(field)                                            \
    if (want.field != got.field())                                        \
        return "cache " #field ": want " + std::to_string(want.field)     \
            + ", got " + std::to_string(got.field());
    UTLB_SPEC_COUNT(hits) UTLB_SPEC_COUNT(misses)
    UTLB_SPEC_COUNT(insertions) UTLB_SPEC_COUNT(refreshes)
    UTLB_SPEC_COUNT(evictions) UTLB_SPEC_COUNT(crossTenantEvictions)
    UTLB_SPEC_COUNT(invalidations)
#undef UTLB_SPEC_COUNT
    return {};
}

/** One configuration's replay of an op list. */
struct Run {
    std::string mismatch;  //!< "" when every check held
    std::size_t failedOp = 0;
    /** Per op: a translation, or a release's result in `ok`. */
    std::vector<core::Translation> outcomes;
    std::string stats;
};

/** Called before op i runs (the tamper gate plants faults here). */
using Hook = std::function<void(std::size_t, Stack &)>;

/**
 * Replay @p ops through @p cfg on a fresh stack. Under LRU and MRU
 * each call is held to the oracle; each call is also held to @p ref's
 * outcome, on results and the host half only when @p refWhole is
 * false. The final stats tree is held to @p ref's (not when
 * @p refWhole is false), the cache, driver and each tenant's pin
 * manager to their auditors.
 */
inline Run
replay(const Case &c, bool offsetting, const Config &cfg,
       const std::vector<Op> &ops, const Run *ref, bool refWhole = true,
       const Hook &hook = {})
{
    Stack st(c, offsetting, cfg);
    std::optional<Oracle> oracle;
    if (c.policy == core::PolicyKind::Lru
        || c.policy == core::PolicyKind::Mru) {
        oracle.emplace(c, offsetting,
                       cfg.striped ? core::SharedUtlbCache::kStampBlock : 0,
                       st.timings, st.costs);
    }
    auto frameOf = [&st](mem::ProcId pid, mem::Vpn vpn) {
        return st.tenants.at(pid).space->lookup(vpn).value_or(
            mem::kInvalidPfn);
    };
    // Ops are made the way the library's callers make them, so that
    // a shrunk list stays a valid workload: an attach of a pid that
    // is not attached, other ops on one that is, an unlock of a lock
    // held, a release of a page no held lock covers.
    std::vector<Op> held;
    auto lockOf = [&held](const Op &op) {
        return std::find_if(held.begin(), held.end(), [&](const Op &l) {
            return l.pid == op.pid
                && (op.kind == Op::Release
                        ? op.a >= l.a && op.a < l.a + l.b
                        : l.a == op.a && l.b == op.b);
        });
    };
    auto valid = [&](const Op &op) {
        if ((op.kind == Op::Attach) == (st.tenants.count(op.pid) != 0))
            return false;
        if (op.kind == Op::Unlock)
            return lockOf(op) != held.end();
        return op.kind != Op::Release || lockOf(op) == held.end();
    };

    Run run;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (hook)
            hook(i, st);
        const Op &op = ops[i];
        core::Translation got, want;
        if (valid(op)) {
            got = st.apply(op);
            if (oracle)
                want = oracle->apply(op, frameOf);
            if (op.kind == Op::Lock && got.ok)
                held.push_back(op);
            else if (op.kind == Op::Unlock)
                held.erase(lockOf(op));
            else if (op.kind == Op::Teardown)
                std::erase_if(held,
                              [&](const Op &l) { return l.pid == op.pid; });
        }
        std::string d = oracle ? diff(want, got) : "";
        if (!d.empty())
            d += " (oracle)";
        else if (ref
                 && !(d = diff(ref->outcomes[i], got, refWhole)).empty())
            d += " (reference)";
        if (!d.empty()) {
            std::ostringstream os;
            os << "op " << i << " " << op << ": " << d;
            run.mismatch = os.str();
            run.failedOp = i;
            return run;
        }
        run.outcomes.push_back(std::move(got));
    }
    run.stats = st.statsDump();
    run.failedOp = ops.size();
    check::AuditReport audit;
    st.cache.audit(audit);
    st.driver.audit(audit);
    for (auto &[pid, t] : st.tenants)
        t.utlb->pinManager().audit(audit);
    if (!audit.ok())
        run.mismatch = "audit: " + audit.summary();
    else if (oracle)
        run.mismatch = diffCounts(oracle->counts(), st.cache);
    if (run.mismatch.empty() && ref && refWhole && run.stats != ref->stats)
        run.mismatch = "final stats tree differs from the reference's";
    return run;
}

/** @p cfg's first mismatch on @p ops, its references' included. */
inline std::string
mismatchOf(const Case &c, bool offsetting, const Config &cfg,
           const std::vector<Op> &ops)
{
    const Base base = baseOf(c, cfg);
    if (!base.cfg)
        return replay(c, offsetting, cfg, ops, nullptr).mismatch;
    if (std::string bad = mismatchOf(c, offsetting, *base.cfg, ops);
        !bad.empty())
        return bad;
    Run ref = replay(c, offsetting, *base.cfg, ops, nullptr);
    return replay(c, offsetting, cfg, ops, &ref, base.whole).mismatch;
}

/**
 * Zeller's ddmin: a 1-minimal sublist of @p items on which @p fails
 * still holds (it must hold on @p items). Tries each of n chunks and
 * then each complement, refining n until chunks are single items.
 */
template <class T, class Fails>
std::vector<T>
ddmin(std::vector<T> items, Fails &&fails)
{
    std::size_t n = 2;
    while (items.size() >= 2) {
        const std::size_t chunk = (items.size() + n - 1) / n;
        bool reduced = false;
        for (std::size_t lo = 0; lo < items.size() && !reduced;
             lo += chunk) {
            const auto a = items.begin() + lo;
            const auto b = items.begin() + std::min(items.size(), lo + chunk);
            std::vector<T> part(a, b);
            std::vector<T> rest(items.begin(), a);
            rest.insert(rest.end(), b, items.end());
            if (fails(part)) {
                items = std::move(part);
                n = 2;
                reduced = true;
            } else if (n > 2 && fails(rest)) {
                items = std::move(rest);
                n = std::max<std::size_t>(n - 1, 2);
                reduced = true;
            }
        }
        if (!reduced) {
            if (n >= items.size())
                break;
            n = std::min(items.size(), n * 2);
        }
    }
    return items;
}

/**
 * Run @p ops through every configuration, index offsetting on and
 * off. Returns "" if all hold; else the first failure and the op
 * list ddmin shrank it to, one initializer per line.
 */
inline std::string
check(const Case &c, const std::vector<Op> &ops)
{
    for (bool offsetting : {true, false}) {
        std::map<std::string_view, Run> runs;
        for (const Config &cfg : matrix()) {
            const Base base = baseOf(c, cfg);
            Run &run = runs[cfg.name];
            run = replay(c, offsetting, cfg, ops,
                         base.cfg ? &runs.at(base.cfg->name) : nullptr,
                         base.whole);
            if (run.mismatch.empty())
                continue;
            std::vector<Op> small =
                ddmin(ops, [&](const std::vector<Op> &sub) {
                    return !mismatchOf(c, offsetting, cfg, sub).empty();
                });
            std::ostringstream os;
            os << cfg.name << ", offsetting " << (offsetting ? "on" : "off")
               << ": " << run.mismatch << "\nshrunk to " << small.size()
               << " ops: " << mismatchOf(c, offsetting, cfg, small) << "\n";
            for (const Op &op : small)
                os << "    " << op << ",\n";
            return os.str();
        }
    }
    return {};
}

} // namespace utlb::spec

#endif // UTLB_TESTS_SPEC_SPEC_RUNNER_HPP
