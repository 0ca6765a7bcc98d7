/**
 * @file
 * Lightweight statistics package.
 *
 * Modeled loosely on gem5's stats: named scalar counters, averages,
 * and histograms that register themselves with a StatGroup and can be
 * dumped as text. Every simulator component that reports numbers in
 * the paper's tables exposes them through these types so the bench
 * harnesses can read them uniformly.
 */

#ifndef UTLB_SIM_STATS_HPP
#define UTLB_SIM_STATS_HPP

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace utlb::sim {

class JsonWriter;
class StatGroup;

/** Base class for all named statistics. */
class StatBase
{
  public:
    StatBase(StatGroup *parent, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return statName; }
    const std::string &desc() const { return statDesc; }

    /** Render "name value # desc" lines into @p os. */
    virtual void print(std::ostream &os) const = 0;

    /**
     * Render this stat as one keyed JSON object field of the form
     * "name": {"type": ..., "desc": ..., <type-specific values>}.
     */
    virtual void writeJson(JsonWriter &w) const = 0;

    /** Reset to the initial state. */
    virtual void reset() = 0;

  private:
    std::string statName;
    std::string statDesc;
};

/** A monotonically adjustable scalar counter. */
class Counter : public StatBase
{
  public:
    Counter(StatGroup *parent, std::string name, std::string desc)
        : StatBase(parent, std::move(name), std::move(desc))
    {}

    Counter &operator++() { ++val; return *this; }
    Counter &operator+=(std::uint64_t n) { val += n; return *this; }

    /**
     * Atomically add @p n with relaxed ordering. For counters that
     * sit off the hot path but can be bumped by concurrent threads
     * (e.g. coherence invalidations under per-set locks); hot-path
     * counters should accumulate into per-thread buffers and be
     * folded in with absorb() instead.
     */
    void addRelaxed(std::uint64_t n);

    /** Fold a per-thread delta in and zero it. */
    void absorb(std::uint64_t &delta)
    {
        val += delta;
        delta = 0;
    }

    std::uint64_t value() const { return val; }
    void set(std::uint64_t v) { val = v; }

    void print(std::ostream &os) const override;
    void writeJson(JsonWriter &w) const override;
    void reset() override { val = 0; }

  private:
    std::uint64_t val = 0;
};

/**
 * Add @p n to @p shard's @p field when the caller has a shard (a
 * concurrent caller's buffered deltas, folded in later with
 * Counter::absorb), else straight to @p global.
 */
template <class Shard>
void
countInto(Counter &global, std::uint64_t Shard::*field, Shard *shard,
          std::uint64_t n = 1)
{
    if (shard)
        shard->*field += n;
    else
        global += n;
}

/** An accumulating mean (sum / count). */
class Average : public StatBase
{
  public:
    Average(StatGroup *parent, std::string name, std::string desc)
        : StatBase(parent, std::move(name), std::move(desc))
    {}

    void sample(double v) { sum += v; ++count; }

    double mean() const { return count ? sum / count : 0.0; }
    std::uint64_t samples() const { return count; }
    double total() const { return sum; }

    void print(std::ostream &os) const override;
    void writeJson(JsonWriter &w) const override;
    void reset() override { sum = 0.0; count = 0; }

  private:
    double sum = 0.0;
    std::uint64_t count = 0;
};

/**
 * Shared accumulation core of Histogram and LocalHistogram: the
 * bucket geometry plus running counts/sum/extrema. One struct, one
 * sample() implementation — a thread-local buffer is thereby
 * guaranteed to accumulate with exactly the arithmetic the global
 * histogram uses, which the bit-exact absorb() contract depends on.
 */
struct HistAccum {
    HistAccum(double max, std::size_t buckets);

    /** Record one sample. Inline, like sampleN(): every modeled
     *  probe and check takes one. */
    void
    sample(double v)
    {
        ++total;
        sum += v;
        minVal = std::min(minVal, v);
        maxVal = std::max(maxVal, v);
        if (v >= maxValBound || v < 0.0) {
            ++overflow;
            return;
        }
        ++counts[bucketOf(v)];
    }

    /**
     * Record @p n samples of the same value @p v. State-identical to
     * calling sample(v) @p n times — including the floating-point
     * accumulation order of the running sum — so batched hot paths
     * can fold equal-valued samples without perturbing the stats.
     */
    void
    sampleN(double v, std::uint64_t n)
    {
        if (n == 0)
            return;
        total += n;
        // Repeated addition, not sum += v * n: the contract is
        // bit-exact equality with n individual sample() calls, and fp
        // addition is not distributive over multiplication.
        for (std::uint64_t i = 0; i < n; ++i)
            sum += v;
        minVal = std::min(minVal, v);
        maxVal = std::max(maxVal, v);
        if (v >= maxValBound || v < 0.0) {
            overflow += n;
            return;
        }
        counts[bucketOf(v)] += n;
    }

    /**
     * Fold @p other in and reset it. When this accumulator holds no
     * samples the merge is bit-exact: counts add in integers, and an
     * empty running sum / min / max absorbs the other's values
     * unchanged (0.0 + x == x, min(+inf, x) == x). A stats snapshot
     * after merging therefore matches the sequential execution as
     * long as every sample of the stat went through a single buffer.
     */
    void absorb(HistAccum &other);

    void reset();

    double maxValBound;
    double bucketWidth;
    std::vector<std::uint64_t> counts;
    std::uint64_t overflow = 0;
    std::uint64_t total = 0;
    double sum = 0.0;
    double minVal = 0.0;
    double maxVal = 0.0;

    /**
     * Memoized bucket of the last in-range value sampled: hot paths
     * sample the same modeled cost over and over, and the divide is
     * most of sample()'s cost. Pure cache — identical bucket either
     * way — so the bit-exact absorb()/sampleN() contracts are
     * unaffected.
     */
    double lastVal = -1.0;   // negatives always go to overflow
    std::size_t lastIdx = 0;

    std::size_t bucketOf(double v)
    {
        if (v == lastVal)
            return lastIdx;
        auto idx = static_cast<std::size_t>(v / bucketWidth);
        if (idx >= counts.size())
            idx = counts.size() - 1;
        lastVal = v;
        lastIdx = idx;
        return idx;
    }
};

/**
 * A fixed-bucket histogram over [0, max) with uniform bucket width,
 * plus an overflow bucket.
 */
class Histogram : public StatBase
{
  public:
    Histogram(StatGroup *parent, std::string name, std::string desc,
              double max, std::size_t buckets);

    void sample(double v) { acc.sample(v); }

    /** See HistAccum::sampleN. */
    void sampleN(double v, std::uint64_t n) { acc.sampleN(v, n); }

    /** Fold a thread-local buffer in and reset it (see HistAccum). */
    void absorb(HistAccum &local) { acc.absorb(local); }

    /** A zeroed thread-local buffer with this histogram's geometry. */
    HistAccum makeLocal() const
    {
        return HistAccum(acc.maxValBound, acc.counts.size());
    }

    std::uint64_t bucketCount(std::size_t i) const
    {
        return acc.counts.at(i);
    }
    std::uint64_t overflowCount() const { return acc.overflow; }
    std::uint64_t samples() const { return acc.total; }
    double mean() const { return acc.total ? acc.sum / acc.total : 0.0; }
    double minSeen() const { return acc.minVal; }
    double maxSeen() const { return acc.maxVal; }

    double bucketWidthOf() const { return acc.bucketWidth; }
    std::size_t buckets() const { return acc.counts.size(); }

    void print(std::ostream &os) const override;
    void writeJson(JsonWriter &w) const override;
    void reset() override { acc.reset(); }

  private:
    HistAccum acc;
};

/**
 * A group of statistics, optionally nested. Components own a
 * StatGroup and declare their stats as members referencing it.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return groupName; }

    /**
     * Attach an independently constructed group as a child of this
     * one. Components own their StatGroup without knowing the tree
     * they will end up in; the simulation harness adopts them into
     * its root after construction. The child must outlive this
     * group and must not be adopted twice.
     */
    void adopt(StatGroup &child) { addChild(&child); }

    /**
     * Detach a previously adopted child before it is destroyed
     * (e.g. when a process unregisters mid-run). No-op if @p child
     * is not a child of this group.
     */
    void disown(StatGroup &child) { removeChild(&child); }

    /** Dump this group's stats (and children's) to @p os. */
    void dump(std::ostream &os) const;

    /**
     * Serialize the whole subtree as one JSON object:
     * {"name": ..., "stats": {<stat name>: {...}, ...},
     *  "groups": [<child subtrees>]}. The keyed overload emits the
     * same object as a field of an enclosing object.
     */
    void writeJson(JsonWriter &w) const;
    void writeJson(JsonWriter &w, std::string_view key) const;

    /** Convenience: writeJson() into @p os as a full document. */
    void dumpJson(std::ostream &os) const;

    /** Reset all stats in this group and children. */
    void resetAll();

    /** Locate a stat by name within this group only, or nullptr. */
    const StatBase *find(const std::string &name) const;

  private:
    friend class StatBase;

    void writeBody(JsonWriter &w) const;

    void addStat(StatBase *stat) { stats.push_back(stat); }
    void addChild(StatGroup *child) { children.push_back(child); }
    void removeChild(StatGroup *child);

    std::string groupName;
    std::vector<StatBase *> stats;
    std::vector<StatGroup *> children;
};

} // namespace utlb::sim

#endif // UTLB_SIM_STATS_HPP
