/**
 * @file
 * Host-clock spans for the benchmark's traced run.
 *
 * The traced run wraps each call the benchmark makes into a layer
 * (UserUtlb::prepare, SharedUtlbCache::peek, VmmcNode::send, ...) in
 * a span: name, start, end, the span that caused it, and the id of
 * the operation (one trace record, one send, one window) it belongs
 * to. Durations are reduced into log-linear histograms as they are
 * recorded; the first kKeep spans are also kept and written out as
 * Chrome trace-event JSON, which Perfetto loads.
 *
 * Spans are wall-clock only. They never feed a modeled number.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <vector>

namespace perfbench {

/** Nanoseconds on the monotonic host clock. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Latency histogram: exact below 64 ns, then 32 sub-buckets per power
 * of two (about 3% resolution). Quantiles report a bucket midpoint.
 */
class LatHist
{
  public:
    void
    add(std::uint64_t ns)
    {
        ++counts[indexOf(ns)];
        ++n;
        total += static_cast<double>(ns);
    }

    void
    merge(const LatHist &o)
    {
        for (std::size_t i = 0; i < counts.size(); ++i)
            counts[i] += o.counts[i];
        n += o.n;
        total += o.total;
    }

    std::uint64_t count() const { return n; }
    double sum() const { return total; }

    /** The @p q quantile (0 < q <= 1), or 0 with no samples. */
    double
    quantile(double q) const
    {
        if (n == 0)
            return 0.0;
        auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n));
        if (rank < 1)
            rank = 1;
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            seen += counts[i];
            if (seen >= rank)
                return midpointOf(i);
        }
        return midpointOf(counts.size() - 1);
    }

  private:
    static constexpr std::size_t kExact = 64;
    static constexpr std::size_t kSub = 32;

    static std::size_t
    indexOf(std::uint64_t ns)
    {
        if (ns < kExact)
            return static_cast<std::size_t>(ns);
        unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(ns));
        unsigned shift = e - 5;
        std::size_t m = (ns >> shift) & (kSub - 1);
        return kExact + (e - 6) * kSub + m;
    }

    static double
    midpointOf(std::size_t idx)
    {
        if (idx < kExact)
            return static_cast<double>(idx);
        std::size_t k = idx - kExact;
        unsigned shift = static_cast<unsigned>(k / kSub) + 1;
        double lo = static_cast<double>((kSub + k % kSub) << shift);
        return lo + static_cast<double>(std::uint64_t{1} << shift) / 2.0;
    }

    std::array<std::uint64_t, kExact + 58 * kSub> counts{};
    std::uint64_t n = 0;
    double total = 0.0;
};

/** One recorded span. @c name must be a string literal. */
struct Span {
    const char *name;
    std::uint64_t id;
    std::uint64_t parent;  //!< 0 = root
    std::uint64_t op;      //!< the operation the span belongs to
    std::uint64_t t0;
    std::uint64_t t1;
    std::uint32_t tid;
};

/**
 * Bounded span store. One per thread; merge for output. Spans past
 * the bound are counted, not stored: the histograms the caller feeds
 * still see every span.
 */
class SpanLog
{
  public:
    /** Spans kept for the Chrome file, over all logs of a run. */
    static constexpr std::size_t kKeep = 100000;

    explicit SpanLog(std::uint32_t tid = 0, std::uint64_t id_base = 0,
                     std::size_t keep = kKeep)
        : tid(tid), keep(keep), lastId(id_base)
    {}

    std::uint64_t nextId() { return ++lastId; }

    void
    add(const char *name, std::uint64_t id, std::uint64_t parent,
        std::uint64_t op, std::uint64_t t0, std::uint64_t t1)
    {
        ++recorded;
        if (spans.size() < keep)
            spans.push_back({name, id, parent, op, t0, t1, tid});
    }

    std::uint64_t total() const { return recorded; }
    const std::vector<Span> &kept() const { return spans; }

  private:
    std::uint32_t tid;
    std::size_t keep;
    std::uint64_t lastId;
    std::uint64_t recorded = 0;
    std::vector<Span> spans;
};

/**
 * Write @p logs as one Chrome trace-event document ("ph":"X" events,
 * microsecond timestamps relative to the earliest span, one tid row
 * per log).
 */
inline void
writeChromeTrace(std::ostream &os, const std::vector<const SpanLog *> &logs)
{
    std::uint64_t base = ~std::uint64_t{0};
    for (const SpanLog *log : logs)
        for (const Span &s : log->kept())
            base = s.t0 < base ? s.t0 : base;
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    char buf[96];
    for (const SpanLog *log : logs) {
        for (const Span &s : log->kept()) {
            os << (first ? "\n" : ",\n");
            first = false;
            std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f",
                          static_cast<double>(s.t0 - base) / 1e3,
                          static_cast<double>(s.t1 - s.t0) / 1e3);
            os << "{\"name\":\"" << s.name << "\",\"cat\":\"bench\","
               << "\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
               << ",\"ts\":" << buf << ",\"args\":{\"id\":" << s.id
               << ",\"parent\":" << s.parent << ",\"op\":" << s.op
               << "}}";
        }
    }
    os << "\n]}\n";
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
