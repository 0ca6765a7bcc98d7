#include "trace/workloads.hpp"

#include <algorithm>
#include <numeric>

#include "sim/flat_map.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"

namespace utlb::trace {

using mem::addrOf;
using mem::kPageSize;
using mem::pageOf;
using mem::pagesSpanned;
using mem::ProcId;
using mem::Vpn;
using sim::Rng;

PageIds
indexPages(const Trace &trace)
{
    // Touches bound the distinct pages from above.
    std::size_t touches = 0;
    for (const auto &rec : trace)
        touches += pagesSpanned(rec.va, rec.nbytes);
    PageIds ids;
    ids.touches.reserve(touches);
    sim::FlatMap<std::uint32_t> idOf;
    // Sized to the touches, not the (smaller) distinct count: about
    // 2 MB for barnes. Keep it. Without it the 14 timed sweep_cold
    // cells ran ~7% slower, with no more page faults; freeing this
    // block raises glibc's dynamic mmap threshold, and with that
    // threshold pinned both variants ran alike (docs/performance.md,
    // "One hashed pass per call").
    idOf.reserve(touches);
    for (const auto &rec : trace) {
        std::size_t n = pagesSpanned(rec.va, rec.nbytes);
        Vpn first = pageOf(rec.va);
        for (std::size_t i = 0; i < n; ++i) {
            auto [id, fresh] = idOf.tryEmplace(
                (static_cast<std::uint64_t>(rec.pid) << 40) | (first + i));
            if (fresh)
                *id = static_cast<std::uint32_t>(idOf.size() - 1);
            ids.touches.push_back(*id);
        }
    }
    ids.distinct = idOf.size();
    UTLB_ASSERT(ids.distinct < ~std::uint32_t{0} - 1,
                "%zu distinct pages overflow the 32-bit page ids",
                ids.distinct);
    return ids;
}

TraceShape
measure(const Trace &trace)
{
    TraceShape shape;
    shape.lookups = trace.size();
    PageIds ids = indexPages(trace);
    shape.distinctPages = ids.distinct;
    sim::FlatMap<bool> pids;  // a set: only the keys matter
    for (const auto &rec : trace) {
        pids.tryEmplace(rec.pid);
        shape.totalBytes += rec.nbytes;
    }
    shape.processes = pids.size();
    shape.pagesPerLookup = trace.empty()
        ? 0.0
        : static_cast<double>(ids.touches.size())
            / static_cast<double>(trace.size());
    return shape;
}

namespace {

/** A (vpn, pages, op) step in one process' private stream. */
struct Step {
    Vpn vpn;
    std::uint32_t npages;
    TraceOp op;
};

using Stream = std::vector<Step>;

/** Base virtual page of a process' communication region. */
Vpn
procBase(ProcId pid)
{
    return (static_cast<Vpn>(pid) + 1) << 20;
}

/**
 * The SVM protocol process: a small, hot set of lock/barrier/diff
 * metadata pages cycled round-robin — it hits the NIC cache almost
 * always after warmup, like the real protocol traffic.
 */
Stream
protocolStream(std::size_t pages, std::size_t lookups)
{
    Stream s;
    s.reserve(lookups);
    Vpn base = procBase(kProtocolPid);
    for (std::size_t i = 0; i < lookups; ++i) {
        s.push_back(Step{base + (i % pages), 1,
                         (i % 7 == 0) ? TraceOp::Fetch : TraceOp::Send});
    }
    return s;
}

/**
 * FFT (§6.1): "exhibits high degree of data communication" with a
 * strided (transpose) pattern. Phase 0 sweeps the process' partition
 * row-major; later phases sweep column-major over a 64-page-wide
 * layout, so successive lookups stride by 64 pages — the pattern
 * that aliases badly in a direct-mapped cache and defeats 16-page
 * pre-pinning (§6.5).
 */
Stream
fftStream(ProcId pid, std::size_t pages, std::size_t lookups)
{
    constexpr std::size_t width = 64;
    constexpr std::size_t repeats = 2;  // diff + page send per touch
    // "FFT is a regular application with a strided access pattern
    // such that it does not access most of the pages that are
    // prepinned" (§6.5): communicated pages sit every 8th page of
    // the element array (one page per 32 KB matrix row), so
    // sequential pre-pinning pins seven unused pages for every
    // useful one, and the power-of-two stride aliases badly in the
    // direct-mapped cache even at 16 K entries (Table 4's stubborn
    // 0.38 miss rate).
    constexpr std::size_t va_stride = 8;
    Stream s;
    s.reserve(lookups);
    Vpn base = procBase(pid);
    std::size_t rows = (pages + width - 1) / width;
    std::size_t phase = 0;
    while (s.size() < lookups) {
        if (phase % 2 == 0) {
            for (std::size_t i = 0; i < pages && s.size() < lookups;
                 ++i) {
                for (std::size_t r = 0;
                     r < repeats && s.size() < lookups; ++r) {
                    s.push_back(Step{base + i * va_stride, 1,
                                     TraceOp::Send});
                }
            }
        } else {
            // Transpose: column-major over a width-page-wide layout,
            // so successive touches stride by 64 pages.
            for (std::size_t col = 0;
                 col < width && s.size() < lookups; ++col) {
                for (std::size_t row = 0;
                     row < rows && s.size() < lookups; ++row) {
                    std::size_t page = row * width + col;
                    if (page >= pages)
                        continue;
                    for (std::size_t r = 0;
                         r < repeats && s.size() < lookups; ++r) {
                        s.push_back(Step{base + page * va_stride, 1,
                                         TraceOp::Send});
                    }
                }
            }
        }
        ++phase;
    }
    return s;
}

/**
 * LU (§6.1): blocked decomposition; each block's pages are touched
 * and shortly after touched again (factor + update), so revisits
 * have tiny reuse distance and hit any cache size — which is why
 * LU's NI miss rate barely moves with cache size in Table 4.
 */
Stream
luStream(ProcId pid, std::size_t pages, std::size_t lookups)
{
    constexpr std::size_t block = 16;
    Stream s;
    s.reserve(lookups);
    Vpn base = procBase(pid);
    // Every page is touched once; the first (lookups - pages) pages
    // are re-touched block-wise right after their first touch
    // (factor, then update), so revisits have tiny reuse distance.
    std::size_t retouch =
        lookups > pages ? lookups - pages : 0;
    while (s.size() < lookups) {
        for (std::size_t b = 0; b < pages && s.size() < lookups;
             b += block) {
            std::size_t hi = std::min(b + block, pages);
            for (std::size_t i = b; i < hi && s.size() < lookups; ++i)
                s.push_back(Step{base + i, 1, TraceOp::Send});
            for (std::size_t i = b;
                 i < hi && retouch > 0 && s.size() < lookups; ++i) {
                s.push_back(Step{base + i, 1, TraceOp::Send});
                --retouch;
            }
        }
    }
    return s;
}

/**
 * Barnes (§6.1): "each process gets a partition of the particles...
 * communication is moderate as the particle partition exhibits
 * spatial locality." Repeated sweeps of a small partition in
 * two-page buffers.
 */
Stream
sweepStream(ProcId pid, std::size_t pages, std::size_t lookups,
            std::size_t repeats)
{
    Stream s;
    s.reserve(lookups);
    Vpn base = procBase(pid);
    while (s.size() < lookups) {
        for (std::size_t i = 0; i + 1 < pages && s.size() < lookups;
             i += 2) {
            // Each two-page buffer is communicated several times in
            // a burst (SVM home-node diff/update traffic) before the
            // sweep moves on.
            for (std::size_t r = 0;
                 r < repeats && s.size() < lookups; ++r)
                s.push_back(Step{base + i, 2, TraceOp::Send});
        }
    }
    return s;
}

Stream
barnesStream(ProcId pid, std::size_t pages, std::size_t lookups)
{
    return sweepStream(pid, pages, lookups, 8);
}

/**
 * Radix (§6.1): phases; in each, a process works a contiguous key
 * range. Phase 0 sweeps the whole partition (compulsory); the
 * remaining lookups revisit a permuted subset, with inter-phase
 * reuse distance, so small caches miss the revisits and a 16K cache
 * holds the footprint.
 */
Stream
radixStream(ProcId pid, std::size_t pages, std::size_t lookups)
{
    // Keys land every 3rd page of the output array, so 16-page
    // pre-pinning pins mostly-unused neighbours (cf. Table 7's
    // radix unpin cost at 16-page pre-pinning).
    constexpr std::size_t va_stride = 3;
    Stream s;
    s.reserve(lookups);
    Vpn base = procBase(pid);
    // One sweep covers the partition; interspersed revisits are
    // mostly near (the rank/permute step re-sends recent pages) with
    // an occasional long-distance revisit into the sorted output.
    std::size_t revisits = lookups > pages ? lookups - pages : 0;
    std::size_t owed_accum = 0;
    std::size_t bursts = 0;
    std::size_t counter = 0;
    constexpr std::size_t burst = 4;
    for (std::size_t i = 0; i < pages && s.size() < lookups; ++i) {
        s.push_back(Step{base + i * va_stride, 1, TraceOp::Send});
        // Spread the revisit budget uniformly across the sweep,
        // emitting it in sequential 4-page bursts (the rank/permute
        // step re-sends runs of consecutive output pages, which is
        // what makes the revisits prefetchable, §6.4). One burst in
        // six lands at long distance (the sorted-output half).
        owed_accum +=
            revisits * (i + 1) / pages - revisits * i / pages;
        if (owed_accum >= burst) {
            owed_accum -= burst;
            std::size_t anchor;
            if (++bursts % 6 == 0 && i > 16)
                anchor = i / 2;
            else
                anchor = i >= burst ? i - burst : 0;
            for (std::size_t k = 0;
                 k < burst && s.size() < lookups; ++k) {
                s.push_back(Step{base + (anchor + k) * va_stride, 1,
                                 TraceOp::Send});
            }
        }
    }
    while (s.size() < lookups) {
        s.push_back(Step{base + (counter++ % pages) * va_stride, 1,
                         TraceOp::Send});
    }
    return s;
}

/**
 * Task-farm apps — Raytrace and Volrend (§6.1): "communication
 * revolves around the task queues." Each task grabs a fresh chunk
 * of the scene/volume, works it with short-reuse revisits, and
 * touches the shared task-queue header pages in between.
 */
Stream
taskFarmStream(ProcId pid, std::size_t pages, std::size_t lookups,
               std::size_t revisits_per_task, Rng &rng)
{
    constexpr std::size_t chunk = 4;
    constexpr std::size_t headers = 4;
    Stream s;
    s.reserve(lookups);
    Vpn base = procBase(pid);
    Vpn header_base = base;  // first pages double as queue headers
    // Tasks land on scattered scene regions: walk the chunks in a
    // multiplicative-permutation order instead of sequentially, so
    // consecutive tasks touch distant pages (and pre-pinning around
    // one task's chunk buys nothing for the next).
    std::size_t nchunks = (pages - headers) / chunk;
    std::size_t perm_stride = nchunks / 2 + 1;
    while (std::gcd(perm_stride, nchunks) != 1)
        ++perm_stride;
    std::size_t chunk_idx = 0;
    std::size_t task = 0;
    while (s.size() < lookups) {
        chunk_idx = (chunk_idx + perm_stride) % nchunks;
        // Chunks sit two chunk-widths apart: the scene data between
        // communicated regions is never sent, so pre-pinning past a
        // chunk pins some pages that are never used.
        Vpn chunk_base = base + headers + chunk_idx * chunk * 2;

        for (std::size_t i = 0; i < chunk && s.size() < lookups; ++i)
            s.push_back(Step{chunk_base + i, 1, TraceOp::Send});
        for (std::size_t i = 0;
             i < revisits_per_task && s.size() < lookups; ++i) {
            s.push_back(Step{chunk_base + rng.below(chunk), 1,
                             TraceOp::Send});
        }
        // Task-queue header access (fetch: dequeue next task).
        std::size_t header_touches = 1 + (task % 2);
        for (std::size_t i = 0;
             i < header_touches && s.size() < lookups; ++i) {
            s.push_back(Step{header_base + rng.below(headers), 1,
                             TraceOp::Fetch});
        }
        ++task;
    }
    return s;
}

/**
 * Water-spatial (§6.1): "a spatialized algorithm to exploit data
 * locality" — a small molecule partition swept repeatedly in
 * two-page buffers, like Barnes but with fewer sweeps.
 */
Stream
waterStream(ProcId pid, std::size_t pages, std::size_t lookups)
{
    return sweepStream(pid, pages, lookups, 3);
}

/**
 * Fair-interleave the five per-process streams into one serialized
 * node trace: at every step the stream with the largest remaining
 * fraction of its work goes next, modeling loosely-lockstep SPMD
 * processes serialized by the trace clock.
 */
Trace
interleave(const std::vector<Stream> &streams, Rng &rng)
{
    Trace out;
    std::size_t total = 0;
    for (const auto &s : streams)
        total += s.size();
    out.reserve(total);

    std::vector<std::size_t> emitted(streams.size(), 0);
    for (std::size_t step = 0; step < total; ++step) {
        // Pick the stream with minimal progress ratio; small random
        // jitter breaks ties differently per seed.
        double best = 2.0;
        std::size_t pick = 0;
        for (std::size_t i = 0; i < streams.size(); ++i) {
            if (emitted[i] >= streams[i].size())
                continue;
            double ratio =
                (static_cast<double>(emitted[i]) + 1.0)
                / static_cast<double>(streams[i].size());
            ratio += rng.uniform() * 1e-3;
            if (ratio < best) {
                best = ratio;
                pick = i;
            }
        }
        const Step &s = streams[pick][emitted[pick]++];
        TraceRecord rec;
        rec.seq = step;
        rec.pid = static_cast<ProcId>(pick);
        rec.op = s.op;
        rec.va = addrOf(s.vpn);
        rec.nbytes = s.npages * static_cast<std::uint32_t>(kPageSize);
        out.push_back(rec);
    }
    return out;
}

/** Split Table 3 targets into per-process page/lookup budgets. */
struct Budget {
    std::size_t appPages;     //!< per application process
    std::size_t appLookups;   //!< per application process
    std::size_t protoPages;
    std::size_t protoLookups;
};

Budget
split(const WorkloadInfo &info, double proto_page_frac,
      double proto_lookup_frac)
{
    Budget b;
    b.protoPages = std::max<std::size_t>(
        16, static_cast<std::size_t>(
                static_cast<double>(info.footprintPages)
                * proto_page_frac));
    b.protoLookups = static_cast<std::size_t>(
        static_cast<double>(info.lookups) * proto_lookup_frac);
    b.appPages = (info.footprintPages - b.protoPages) / kAppProcs;
    b.appLookups = (info.lookups - b.protoLookups) / kAppProcs;
    return b;
}

} // namespace

const std::vector<WorkloadInfo> &
allWorkloads()
{
    static const std::vector<WorkloadInfo> table = {
        {"fft", "4M elements", 10803, 43132},
        {"lu", "4K x 4K matrix", 12507, 25198},
        {"barnes", "32K particles", 2235, 35904},
        {"radix", "4M keys", 6393, 11775},
        {"raytrace", "256 x 256 car", 6319, 14594},
        {"volrend", "256^3 CST head", 2371, 9438},
        {"water", "15,625 molecules", 1890, 8488},
    };
    return table;
}

const WorkloadInfo &
workloadByName(const std::string &name)
{
    for (const auto &w : allWorkloads()) {
        if (w.name == name)
            return w;
    }
    sim::fatal("unknown workload '%s'", name.c_str());
}

Trace
generateTrace(const std::string &name, std::uint64_t seed)
{
    const WorkloadInfo &info = workloadByName(name);
    Rng rng(seed * 0x9e3779b9u + 17);

    std::vector<Stream> streams;
    if (name == "fft") {
        Budget b = split(info, 0.018, 0.10);
        for (ProcId p = 0; p < kAppProcs; ++p)
            streams.push_back(fftStream(p, b.appPages, b.appLookups));
        streams.push_back(protocolStream(b.protoPages, b.protoLookups));
    } else if (name == "lu") {
        Budget b = split(info, 0.015, 0.10);
        for (ProcId p = 0; p < kAppProcs; ++p)
            streams.push_back(luStream(p, b.appPages, b.appLookups));
        streams.push_back(protocolStream(b.protoPages, b.protoLookups));
    } else if (name == "barnes") {
        Budget b = split(info, 0.028, 0.10);
        for (ProcId p = 0; p < kAppProcs; ++p)
            streams.push_back(
                barnesStream(p, b.appPages, b.appLookups));
        streams.push_back(protocolStream(b.protoPages, b.protoLookups));
    } else if (name == "radix") {
        Budget b = split(info, 0.02, 0.10);
        for (ProcId p = 0; p < kAppProcs; ++p)
            streams.push_back(radixStream(p, b.appPages, b.appLookups));
        streams.push_back(protocolStream(b.protoPages, b.protoLookups));
    } else if (name == "raytrace") {
        Budget b = split(info, 0.02, 0.10);
        for (ProcId p = 0; p < kAppProcs; ++p) {
            streams.push_back(taskFarmStream(p, b.appPages,
                                             b.appLookups, 3, rng));
        }
        streams.push_back(protocolStream(b.protoPages, b.protoLookups));
    } else if (name == "volrend") {
        Budget b = split(info, 0.027, 0.10);
        for (ProcId p = 0; p < kAppProcs; ++p) {
            streams.push_back(taskFarmStream(p, b.appPages,
                                             b.appLookups, 8, rng));
        }
        streams.push_back(protocolStream(b.protoPages, b.protoLookups));
    } else if (name == "water") {
        Budget b = split(info, 0.034, 0.10);
        for (ProcId p = 0; p < kAppProcs; ++p)
            streams.push_back(waterStream(p, b.appPages, b.appLookups));
        streams.push_back(protocolStream(b.protoPages, b.protoLookups));
    } else {
        sim::fatal("generator missing for workload '%s'", name.c_str());
    }
    return interleave(streams, rng);
}

Trace
generateSynthetic(const std::string &kind, const SyntheticSpec &spec,
                  std::uint64_t seed)
{
    Rng rng(seed * 77 + 5);
    std::vector<Stream> streams;
    for (ProcId p = 0; p < spec.processes; ++p) {
        Stream s;
        s.reserve(spec.lookups);
        Vpn base = procBase(p);
        if (kind == "uniform") {
            for (std::size_t i = 0; i < spec.lookups; ++i) {
                s.push_back(Step{base + rng.below(spec.pages), 1,
                                 TraceOp::Send});
            }
        } else if (kind == "stream") {
            // Pure streaming: every access touches a fresh page
            // (spec.pages is ignored; footprint == lookups).
            for (std::size_t i = 0; i < spec.lookups; ++i)
                s.push_back(Step{base + i, 1, TraceOp::Send});
        } else if (kind == "hotcold") {
            for (std::size_t i = 0; i < spec.lookups; ++i) {
                Vpn v = rng.chance(spec.hotFraction)
                    ? rng.below(spec.hotPages)
                    : spec.hotPages + rng.below(spec.pages);
                s.push_back(Step{base + v, 1, TraceOp::Send});
            }
        } else {
            sim::fatal("unknown synthetic workload '%s'",
                       kind.c_str());
        }
        streams.push_back(std::move(s));
    }
    return interleave(streams, rng);
}

} // namespace utlb::trace
