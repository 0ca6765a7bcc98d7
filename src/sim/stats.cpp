#include "sim/stats.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <ostream>

#include "sim/json.hpp"
#include "sim/log.hpp"

namespace utlb::sim {

namespace {

/** Pad a stat name to a fixed column so values line up. */
std::string
statNameWidth(const std::string &name)
{
    constexpr std::size_t width = 40;
    std::string out = name;
    if (out.size() < width)
        out.append(width - out.size(), ' ');
    else
        out.push_back(' ');
    return out;
}

} // namespace

StatBase::StatBase(StatGroup *parent, std::string name, std::string desc)
    : statName(std::move(name)), statDesc(std::move(desc))
{
    if (parent)
        parent->addStat(this);
}

void
Counter::addRelaxed(std::uint64_t n)
{
    std::atomic_ref<std::uint64_t>(val).fetch_add(
        n, std::memory_order_relaxed);
}

void
Counter::print(std::ostream &os) const
{
    os << statNameWidth(name()) << val << "  # " << desc() << '\n';
}

void
Counter::writeJson(JsonWriter &w) const
{
    w.beginObject(name());
    w.field("type", "counter");
    w.field("value", val);
    w.field("desc", desc());
    w.endObject();
}

void
Average::print(std::ostream &os) const
{
    os << statNameWidth(name()) << mean() << "  # " << desc()
       << " (" << count << " samples)\n";
}

void
Average::writeJson(JsonWriter &w) const
{
    w.beginObject(name());
    w.field("type", "average");
    w.field("mean", mean());
    w.field("samples", count);
    w.field("total", sum);
    w.field("desc", desc());
    w.endObject();
}

HistAccum::HistAccum(double max, std::size_t buckets)
    : maxValBound(max),
      bucketWidth(max / static_cast<double>(buckets)),
      counts(buckets, 0),
      minVal(std::numeric_limits<double>::infinity()),
      maxVal(-std::numeric_limits<double>::infinity())
{
    if (max <= 0.0 || buckets == 0)
        fatal("Histogram requires max > 0 and buckets > 0");
}

void
HistAccum::absorb(HistAccum &other)
{
    if (other.counts.size() != counts.size()
        || other.maxValBound != maxValBound)
        fatal("HistAccum::absorb geometry mismatch (%zu/%f vs %zu/%f)",
              counts.size(), maxValBound, other.counts.size(),
              other.maxValBound);
    if (other.total != 0) {
        total += other.total;
        sum += other.sum;
        minVal = std::min(minVal, other.minVal);
        maxVal = std::max(maxVal, other.maxVal);
        overflow += other.overflow;
        for (std::size_t i = 0; i < counts.size(); ++i)
            counts[i] += other.counts[i];
    }
    other.reset();
}

void
HistAccum::reset()
{
    std::fill(counts.begin(), counts.end(), 0);
    overflow = 0;
    total = 0;
    sum = 0.0;
    minVal = std::numeric_limits<double>::infinity();
    maxVal = -std::numeric_limits<double>::infinity();
}

Histogram::Histogram(StatGroup *parent, std::string name, std::string desc,
                     double max, std::size_t buckets)
    : StatBase(parent, std::move(name), std::move(desc)),
      acc(max, buckets)
{
}

void
Histogram::print(std::ostream &os) const
{
    os << statNameWidth(name()) << "hist(" << acc.total
       << " samples, mean " << mean() << ")  # " << desc() << '\n';
    for (std::size_t i = 0; i < acc.counts.size(); ++i) {
        if (!acc.counts[i])
            continue;
        os << "    [" << i * acc.bucketWidth << ", "
           << (i + 1) * acc.bucketWidth << "): " << acc.counts[i]
           << '\n';
    }
    if (acc.overflow)
        os << "    overflow: " << acc.overflow << '\n';
}

void
Histogram::writeJson(JsonWriter &w) const
{
    w.beginObject(name());
    w.field("type", "histogram");
    w.field("samples", acc.total);
    w.field("mean", mean());
    w.field("min", acc.total ? acc.minVal : 0.0);
    w.field("max", acc.total ? acc.maxVal : 0.0);
    w.field("bucket_width", acc.bucketWidth);
    w.beginArray("buckets");
    for (std::uint64_t c : acc.counts)
        w.value(c);
    w.endArray();
    w.field("overflow", acc.overflow);
    w.field("desc", desc());
    w.endObject();
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : groupName(std::move(name))
{
    if (parent)
        parent->addChild(this);
}

void
StatGroup::dump(std::ostream &os) const
{
    os << "---- " << groupName << " ----\n";
    for (const auto *s : stats)
        s->print(os);
    for (const auto *c : children)
        c->dump(os);
}

void
StatGroup::writeJson(JsonWriter &w) const
{
    w.beginObject();
    writeBody(w);
    w.endObject();
}

void
StatGroup::writeJson(JsonWriter &w, std::string_view key) const
{
    w.beginObject(key);
    writeBody(w);
    w.endObject();
}

void
StatGroup::writeBody(JsonWriter &w) const
{
    w.field("name", groupName);
    w.beginObject("stats");
    for (const auto *s : stats)
        s->writeJson(w);
    w.endObject();
    w.beginArray("groups");
    for (const auto *c : children)
        c->writeJson(w);
    w.endArray();
}

void
StatGroup::dumpJson(std::ostream &os) const
{
    JsonWriter w(os);
    writeJson(w);
    os << '\n';
}

void
StatGroup::removeChild(StatGroup *child)
{
    children.erase(std::remove(children.begin(), children.end(), child),
                   children.end());
}

void
StatGroup::resetAll()
{
    for (auto *s : stats)
        s->reset();
    for (auto *c : children)
        c->resetAll();
}

const StatBase *
StatGroup::find(const std::string &name) const
{
    for (const auto *s : stats) {
        if (s->name() == name)
            return s;
    }
    return nullptr;
}

} // namespace utlb::sim
