/**
 * @file
 * Tests for the observability layer and the translation-accounting
 * fixes that came with it:
 *
 *  - the streaming JsonWriter (escaping, nesting, raw embedding);
 *  - the stats tree's JSON serialization and the "utlb-stats-v1"
 *    per-run document simulateUtlb()/simulateIntr() emit (including
 *    the wall_ns result and batched_range config fields, and the
 *    --batch replay's modeled-result equivalence);
 *  - the bench harnesses' "utlb-bench-v1" document (wall_ns +
 *    host_info);
 *  - the Chrome trace-event stream of the NIC miss path;
 *  - regressions for three accounting bugs: prefetch refreshes
 *    polluting LRU order, NicLookup::fetched counting raw DMA run
 *    width instead of installed entries, and the removal taxonomy
 *    lumping sheds/invalidations in with capacity evictions.
 *
 * The schema checks parse the emitted JSON with a small
 * recursive-descent parser defined here, so a malformed document
 * fails loudly rather than by substring accident.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

#include "check/audit.hpp"
#include "core/cost_model.hpp"
#include "core/driver.hpp"
#include "core/shared_cache.hpp"
#include "core/utlb.hpp"
#include "mem/address_space.hpp"
#include "nic/timing.hpp"
#include "node_stack.hpp"
#include "sim/json.hpp"
#include "sim/stats.hpp"
#include "sim/tracer.hpp"
#include "tlbsim/simulator.hpp"
#include "trace/workloads.hpp"

namespace {

using namespace utlb;
using core::CacheConfig;
using core::InsertMode;
using core::SharedUtlbCache;
using core::UserUtlb;
using core::UtlbConfig;
using mem::AddressSpace;
using mem::ProcId;
using mem::Vpn;
using nic::NicTimings;

// ---------------------------------------------------------------------
// A minimal JSON parser for the schema tests
// ---------------------------------------------------------------------

/** Parsed JSON value (doubles for all numbers). */
struct JValue {
    enum Kind { Null, Bool, Num, Str, Arr, Obj };
    Kind kind = Null;
    bool boolean = false;
    double num = 0.0;
    std::string str;
    std::vector<JValue> arr;
    std::map<std::string, JValue> obj;

    bool has(const std::string &key) const { return obj.count(key) > 0; }

    const JValue &
    at(const std::string &key) const
    {
        auto it = obj.find(key);
        if (it == obj.end()) {
            ADD_FAILURE() << "missing JSON key: " << key;
            static const JValue none;
            return none;
        }
        return it->second;
    }
};

/** Recursive-descent JSON parser; parse errors fail the test. */
class JParser
{
  public:
    static JValue
    parse(const std::string &text)
    {
        JParser p(text);
        JValue v = p.value();
        p.ws();
        EXPECT_EQ(p.pos, text.size()) << "trailing JSON garbage";
        return v;
    }

  private:
    explicit JParser(const std::string &t) : text(t) {}

    void
    ws()
    {
        while (pos < text.size()
               && (text[pos] == ' ' || text[pos] == '\n'
                   || text[pos] == '\t' || text[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        ws();
        if (pos >= text.size()) {
            ADD_FAILURE() << "unexpected end of JSON";
            return '\0';
        }
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() == c)
            ++pos;
        else
            ADD_FAILURE() << "expected '" << c << "' at byte " << pos;
    }

    bool
    eat(const char *lit)
    {
        std::size_t n = std::string(lit).size();
        if (text.compare(pos, n, lit) == 0) {
            pos += n;
            return true;
        }
        return false;
    }

    JValue
    value()
    {
        JValue v;
        switch (peek()) {
          case '{': {
            v.kind = JValue::Obj;
            expect('{');
            if (peek() != '}') {
                do {
                    JValue key = value();
                    expect(':');
                    v.obj.emplace(key.str, value());
                } while (peek() == ',' && (++pos, true));
            }
            expect('}');
            return v;
          }
          case '[': {
            v.kind = JValue::Arr;
            expect('[');
            if (peek() != ']') {
                do {
                    v.arr.push_back(value());
                } while (peek() == ',' && (++pos, true));
            }
            expect(']');
            return v;
          }
          case '"': {
            v.kind = JValue::Str;
            ++pos;
            while (pos < text.size() && text[pos] != '"') {
                if (text[pos] == '\\' && pos + 1 < text.size()) {
                    ++pos;
                    switch (text[pos]) {
                      case 'n': v.str.push_back('\n'); break;
                      case 't': v.str.push_back('\t'); break;
                      case 'r': v.str.push_back('\r'); break;
                      case 'b': v.str.push_back('\b'); break;
                      case 'f': v.str.push_back('\f'); break;
                      case 'u':
                        // Tests only emit \u00XX control escapes.
                        v.str.push_back(static_cast<char>(std::stoi(
                            text.substr(pos + 1, 4), nullptr, 16)));
                        pos += 4;
                        break;
                      default: v.str.push_back(text[pos]);
                    }
                } else {
                    v.str.push_back(text[pos]);
                }
                ++pos;
            }
            expect('"');
            return v;
          }
          default: {
            ws();
            if (eat("true")) {
                v.kind = JValue::Bool;
                v.boolean = true;
                return v;
            }
            if (eat("false")) {
                v.kind = JValue::Bool;
                return v;
            }
            if (eat("null"))
                return v;
            v.kind = JValue::Num;
            std::size_t used = 0;
            v.num = std::stod(text.substr(pos), &used);
            EXPECT_GT(used, 0u) << "bad JSON number at byte " << pos;
            pos += used;
            return v;
          }
        }
    }

    const std::string &text;
    std::size_t pos = 0;
};

/** Find the direct child group named @p name, failing if absent. */
const JValue &
childGroup(const JValue &group, const std::string &name)
{
    for (const JValue &g : group.at("groups").arr) {
        if (g.at("name").str == name)
            return g;
    }
    ADD_FAILURE() << "no child stats group named " << name;
    static const JValue none;
    return none;
}

// ---------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------

TEST(JsonWriter, EscapesAndNestsRoundTrip)
{
    std::ostringstream os;
    sim::JsonWriter w(os);
    w.beginObject();
    w.field("plain", "value");
    w.field("tricky", "a\"b\\c\nd\te\x01f");
    w.field("int", std::uint64_t{42});
    w.field("neg", -1.5);
    w.field("flag", true);
    w.beginArray("list");
    w.value(std::uint64_t{1});
    w.beginObject();
    w.field("inner", "x");
    w.endObject();
    w.endArray();
    w.endObject();
    ASSERT_TRUE(w.done());

    JValue v = JParser::parse(os.str());
    EXPECT_EQ(v.at("plain").str, "value");
    EXPECT_EQ(v.at("tricky").str, "a\"b\\c\nd\te\x01f");
    EXPECT_EQ(v.at("int").num, 42.0);
    EXPECT_EQ(v.at("neg").num, -1.5);
    EXPECT_TRUE(v.at("flag").boolean);
    ASSERT_EQ(v.at("list").arr.size(), 2u);
    EXPECT_EQ(v.at("list").arr[1].at("inner").str, "x");
}

TEST(JsonWriter, RawEmbeddingPreservesDocument)
{
    std::ostringstream os;
    sim::JsonWriter w(os);
    w.beginObject();
    w.rawField("embedded", "{\"k\": 7}");
    w.beginArray("runs");
    w.rawValue("{\"mech\": \"utlb\"}");
    w.endArray();
    w.endObject();
    ASSERT_TRUE(w.done());

    JValue v = JParser::parse(os.str());
    EXPECT_EQ(v.at("embedded").at("k").num, 7.0);
    EXPECT_EQ(v.at("runs").arr.at(0).at("mech").str, "utlb");
}

TEST(JsonWriter, NonFiniteDoublesBecomeZero)
{
    std::ostringstream os;
    sim::JsonWriter w(os);
    w.beginObject();
    w.field("inf", std::numeric_limits<double>::infinity());
    w.field("nan", std::numeric_limits<double>::quiet_NaN());
    w.endObject();
    JValue v = JParser::parse(os.str());
    EXPECT_EQ(v.at("inf").num, 0.0);
    EXPECT_EQ(v.at("nan").num, 0.0);
}

/** A nested document exercising every kind of write. */
void
writeGoldenDoc(sim::JsonWriter &w)
{
    w.beginObject();
    w.field("str", "q\"b\\s/\b\f\n\r\t\x01\x1f\x7f\xc3\xa9");
    w.field("cstr", static_cast<const char *>("plain"));
    w.field("zero", std::uint64_t{0});
    w.field("max", ~std::uint64_t{0});
    w.field("yes", true);
    w.field("no", false);
    w.field("pi", 3.14159265358979);
    w.field("tiny", -1.25e-300);
    w.field("big", 6.02214076e23);
    w.field("whole", 1024.0);
    w.field("inf", std::numeric_limits<double>::infinity());
    w.field("ninf", -std::numeric_limits<double>::infinity());
    w.field("nan", std::numeric_limits<double>::quiet_NaN());
    w.rawField("raw", "{\"k\": [1, 2]}");
    w.beginObject("empty_obj");
    w.endObject();
    w.beginArray("empty_arr");
    w.endArray();
    w.beginArray("list");
    w.value("e\"l");
    w.value(std::uint64_t{7});
    w.value(0.1);
    w.rawValue("null");
    w.beginArray();
    w.beginObject();
    w.field("deep", std::uint64_t{3});
    w.endObject();
    w.endArray();
    w.endArray();
    w.endObject();
}

// Recorded from the ostream-at-a-time writer: the buffered writer
// must reproduce it byte for byte.
TEST(JsonWriter, PrettyOutputIsByteIdentical)
{
    std::ostringstream os;
    sim::JsonWriter w(os);
    writeGoldenDoc(w);
    const std::string want =
        "{\n"
        "  \"str\": \"q\\\"b\\\\s/\\b\\f\\n\\r\\t"
        "\\u0001\\u001f\x7f\xc3\xa9\",\n"
        "  \"cstr\": \"plain\",\n"
        "  \"zero\": 0,\n"
        "  \"max\": 18446744073709551615,\n"
        "  \"yes\": true,\n"
        "  \"no\": false,\n"
        "  \"pi\": 3.14159265359,\n"
        "  \"tiny\": -1.25e-300,\n"
        "  \"big\": 6.02214076e+23,\n"
        "  \"whole\": 1024,\n"
        "  \"inf\": 0,\n"
        "  \"ninf\": 0,\n"
        "  \"nan\": 0,\n"
        "  \"raw\": {\"k\": [1, 2]},\n"
        "  \"empty_obj\": {},\n"
        "  \"empty_arr\": [],\n"
        "  \"list\": [\n"
        "    \"e\\\"l\",\n"
        "    7,\n"
        "    0.1,\n"
        "    null,\n"
        "    [\n"
        "      {\n"
        "        \"deep\": 3\n"
        "      }\n"
        "    ]\n"
        "  ]\n"
        "}";
    EXPECT_EQ(os.str(), want);
}

TEST(JsonWriter, CompactOutputIsByteIdentical)
{
    std::ostringstream os;
    sim::JsonWriter w(os, false);
    writeGoldenDoc(w);
    const std::string want =
        "{\"str\":\"q\\\"b\\\\s/\\b\\f\\n\\r\\t"
        "\\u0001\\u001f\x7f\xc3\xa9\","
        "\"cstr\":\"plain\",\"zero\":0,\"max\":18446744073709551615,"
        "\"yes\":true,\"no\":false,\"pi\":3.14159265359,"
        "\"tiny\":-1.25e-300,\"big\":6.02214076e+23,\"whole\":1024,"
        "\"inf\":0,\"ninf\":0,\"nan\":0,\"raw\":{\"k\": [1, 2]},"
        "\"empty_obj\":{},\"empty_arr\":[],\"list\":[\"e\\\"l\",7,"
        "0.1,null,[{\"deep\":3}]]}";
    EXPECT_EQ(os.str(), want);
}

// runJson() and dumpJson() read or extend the stream right after the
// top-level close, while the writer is still alive.
TEST(JsonWriter, StreamIsCompleteAtTopLevelClose)
{
    for (bool pretty : {true, false}) {
        std::ostringstream os;
        sim::JsonWriter w(os, pretty);
        w.beginObject();
        w.field("a", std::uint64_t{1});
        w.endObject();
        EXPECT_EQ(os.str(), pretty ? "{\n  \"a\": 1\n}" : "{\"a\":1}");
        os << '\n';
        EXPECT_EQ(os.str().back(), '\n');
    }
}

// The tracer's Chrome output is one long compact-able document: its
// bytes must reach the stream in blocks while it is still open.
TEST(JsonWriter, LargeDocumentReachesStreamBeforeItCloses)
{
    for (bool pretty : {true, false}) {
        std::ostringstream os;
        sim::JsonWriter w(os, pretty);
        w.beginObject();
        w.beginArray("events");
        const std::string pad(100, 'x');
        for (int i = 0; i < 1001; ++i)
            w.value(pad);  // > 100 KB in all
        EXPECT_GE(os.str().size(), 64u * 1024);
        w.endArray();
        w.endObject();
        JValue v = JParser::parse(os.str());
        EXPECT_EQ(v.at("events").arr.size(), 1001u);
    }
}

// ---------------------------------------------------------------------
// Stats tree serialization
// ---------------------------------------------------------------------

TEST(StatsJson, GroupTreeSerializes)
{
    sim::StatGroup root("root");
    sim::Counter c(&root, "events", "things that happened");
    sim::Histogram h(&root, "lat", "latency", 10.0, 5);
    sim::StatGroup child("leaf", &root);
    sim::Counter cc(&child, "drops", "discarded");

    c += 3;
    h.sample(1.0);
    h.sample(9.5);
    h.sample(99.0);  // overflow
    ++cc;

    std::ostringstream os;
    root.dumpJson(os);
    JValue v = JParser::parse(os.str());

    EXPECT_EQ(v.at("name").str, "root");
    const JValue &ev = v.at("stats").at("events");
    EXPECT_EQ(ev.at("type").str, "counter");
    EXPECT_EQ(ev.at("value").num, 3.0);
    const JValue &lat = v.at("stats").at("lat");
    EXPECT_EQ(lat.at("type").str, "histogram");
    EXPECT_EQ(lat.at("samples").num, 3.0);
    EXPECT_EQ(lat.at("overflow").num, 1.0);
    ASSERT_EQ(lat.at("buckets").arr.size(), 5u);
    EXPECT_EQ(lat.at("buckets").arr[0].num, 1.0);
    const JValue &leaf = childGroup(v, "leaf");
    EXPECT_EQ(leaf.at("stats").at("drops").at("value").num, 1.0);
}

/** Small deterministic trace shared by the run-level schema tests. */
trace::Trace
smallTrace()
{
    trace::SyntheticSpec spec;
    spec.processes = 2;
    spec.pages = 64;
    spec.lookups = 256;
    return trace::generateSynthetic("uniform", spec, 7);
}

TEST(StatsJson, UtlbRunDocumentMatchesSchema)
{
    tlbsim::SimConfig cfg;
    cfg.cache = {256, 1, true};
    tlbsim::SimResult res = tlbsim::simulateUtlb(smallTrace(), cfg);

    ASSERT_FALSE(res.statsJson.empty());
    JValue v = JParser::parse(res.statsJson);
    EXPECT_EQ(v.at("schema").str, "utlb-stats-v1");
    EXPECT_EQ(v.at("mechanism").str, "utlb");

    const JValue &c = v.at("config");
    EXPECT_EQ(c.at("cache_entries").num, 256.0);
    EXPECT_EQ(c.at("policy").str, "LRU");

    const JValue &r = v.at("results");
    EXPECT_EQ(r.at("lookups").num,
              static_cast<double>(res.lookups));
    EXPECT_EQ(r.at("probes").num, static_cast<double>(res.probes));
    EXPECT_TRUE(r.has("probe_miss_rate"));
    EXPECT_TRUE(r.has("avg_lookup_cost_us"));
    EXPECT_FALSE(c.at("batched_range").boolean);
    EXPECT_GT(r.at("wall_ns").num, 0.0);
    // The writer prints ~12 significant digits; allow that rounding.
    EXPECT_NEAR(r.at("wall_ns").num, res.wallNs,
                res.wallNs * 1e-9 + 1.0);

    // Component tree: the shared cache's counters must agree with
    // the headline results, and each process subtree must carry its
    // pin manager and a populated translation latency histogram.
    const JValue &comp = v.at("components");
    EXPECT_EQ(comp.at("name").str, "utlb");
    const JValue &cache = childGroup(comp, "shared_cache");
    double hits = cache.at("stats").at("hits").at("value").num;
    double misses = cache.at("stats").at("misses").at("value").num;
    EXPECT_EQ(hits + misses, static_cast<double>(res.probes));
    EXPECT_EQ(misses, static_cast<double>(res.niMissProbes));

    // The driver mounts each registered process' host page table.
    const JValue &table =
        childGroup(childGroup(comp, "driver"), "host_table0");
    EXPECT_GT(table.at("stats").at("installs").at("value").num, 0.0);

    const JValue &proc = childGroup(comp, "proc0");
    const JValue &lat = proc.at("stats").at("translate_latency_us");
    EXPECT_GT(lat.at("samples").num, 0.0);
    const JValue &pin = childGroup(proc, "pin_manager");
    EXPECT_GT(pin.at("stats").at("checks").at("value").num, 0.0);
}

TEST(StatsJson, IntrRunDocumentMatchesSchema)
{
    tlbsim::SimConfig cfg;
    cfg.cache = {256, 1, true};
    tlbsim::SimResult res = tlbsim::simulateIntr(smallTrace(), cfg);

    JValue v = JParser::parse(res.statsJson);
    EXPECT_EQ(v.at("mechanism").str, "intr");
    const JValue &comp = v.at("components");
    const JValue &intr = childGroup(comp, "interrupt_tlb");
    EXPECT_EQ(intr.at("stats").at("interrupts").at("value").num,
              static_cast<double>(res.interrupts));
}

TEST(StatsJson, EmptyTraceStillProducesDocument)
{
    tlbsim::SimConfig cfg;
    trace::Trace empty;
    tlbsim::SimResult res = tlbsim::simulateUtlb(empty, cfg);
    JValue v = JParser::parse(res.statsJson);
    EXPECT_EQ(v.at("schema").str, "utlb-stats-v1");
    EXPECT_EQ(v.at("results").at("lookups").num, 0.0);
}

TEST(StatsJson, BatchedReplayMatchesPerPageReplay)
{
    // --batch drives the replay through translateRange(); every
    // modeled number in the document must be unchanged.
    tlbsim::SimConfig cfg;
    cfg.cache = {256, 1, true};
    cfg.prefetchEntries = 4;
    cfg.memLimitPages = 48;
    trace::Trace tr = smallTrace();
    tlbsim::SimResult perpage = tlbsim::simulateUtlb(tr, cfg);
    cfg.batchedRange = true;
    tlbsim::SimResult batched = tlbsim::simulateUtlb(tr, cfg);

    EXPECT_EQ(perpage.lookups, batched.lookups);
    EXPECT_EQ(perpage.probes, batched.probes);
    EXPECT_EQ(perpage.checkMissLookups, batched.checkMissLookups);
    EXPECT_EQ(perpage.niMissLookups, batched.niMissLookups);
    EXPECT_EQ(perpage.niMissProbes, batched.niMissProbes);
    EXPECT_EQ(perpage.pagesPinned, batched.pagesPinned);
    EXPECT_EQ(perpage.pagesUnpinned, batched.pagesUnpinned);
    EXPECT_EQ(perpage.pinIoctls, batched.pinIoctls);
    EXPECT_EQ(perpage.hostTime, batched.hostTime);
    EXPECT_EQ(perpage.pinTime, batched.pinTime);
    EXPECT_EQ(perpage.unpinTime, batched.unpinTime);
    EXPECT_EQ(perpage.nicTime, batched.nicTime);
    EXPECT_EQ(perpage.compulsoryMisses, batched.compulsoryMisses);
    EXPECT_EQ(perpage.capacityMisses, batched.capacityMisses);
    EXPECT_EQ(perpage.conflictMisses, batched.conflictMisses);
}

// ---------------------------------------------------------------------
// Bench JSON ("utlb-bench-v1") schema
// ---------------------------------------------------------------------

TEST(BenchJson, ReporterDocumentMatchesSchema)
{
    std::string dir = ::testing::TempDir();
    ASSERT_EQ(setenv("UTLB_BENCH_JSON_DIR", dir.c_str(), 1), 0);
    {
        bench::JsonReporter rep("schema_test");
        rep.add({{"scenario", "s1"}, {"mode", "batched"}},
                {{"pages_per_sec", 123.0}, {"wall_ns", 456.0}});
        rep.write();
    }
    unsetenv("UTLB_BENCH_JSON_DIR");

    std::ifstream ifs(dir + "/BENCH_schema_test.json");
    ASSERT_TRUE(ifs.good());
    std::ostringstream buf;
    buf << ifs.rdbuf();
    JValue v = JParser::parse(buf.str());

    EXPECT_EQ(v.at("schema").str, "utlb-bench-v1");
    EXPECT_EQ(v.at("bench").str, "schema_test");
    EXPECT_GT(v.at("wall_ns").num, 0.0);
    const JValue &host = v.at("host_info");
    EXPECT_GT(host.at("cores").num, 0.0);
    const std::string &bt = host.at("build_type").str;
    EXPECT_TRUE(bt == "optimized" || bt == "debug") << bt;
    ASSERT_EQ(v.at("points").arr.size(), 1u);
    const JValue &p = v.at("points").arr[0];
    EXPECT_EQ(p.at("labels").at("scenario").str, "s1");
    EXPECT_EQ(p.at("labels").at("mode").str, "batched");
    EXPECT_EQ(p.at("metrics").at("pages_per_sec").num, 123.0);
    EXPECT_EQ(p.at("metrics").at("wall_ns").num, 456.0);
}

// ---------------------------------------------------------------------
// Miss-path tracing
// ---------------------------------------------------------------------

TEST(Tracing, MissPathEmitsProbeFetchInstallSpans)
{
    sim::Tracer tracer;
    tlbsim::SimConfig cfg;
    cfg.cache = {256, 1, true};
    cfg.tracer = &tracer;
    tlbsim::simulateUtlb(smallTrace(), cfg);
    ASSERT_GT(tracer.events(), 0u);

    std::ostringstream os;
    tracer.writeJson(os);
    JValue v = JParser::parse(os.str());
    const auto &events = v.at("traceEvents").arr;
    ASSERT_FALSE(events.empty());

    std::map<std::string, std::size_t> byName;
    double last_end = 0.0;
    for (const JValue &e : events) {
        ++byName[e.at("name").str];
        EXPECT_TRUE(e.has("ph"));
        EXPECT_TRUE(e.has("ts"));
        EXPECT_TRUE(e.has("pid"));
        if (e.at("ph").str == "X") {
            // The clock cursor advances monotonically (allow for
            // double rounding in the tick -> us conversion).
            EXPECT_GE(e.at("ts").num, last_end - 1e-6);
            last_end = e.at("ts").num + e.at("dur").num;
        }
    }
    EXPECT_GT(byName["cache.probe"], 0u);
    EXPECT_GT(byName["table.dma_read"], 0u);
    EXPECT_GT(byName["cache.install"], 0u);
}

TEST(Tracing, BufferBoundDropsInsteadOfGrowing)
{
    sim::Tracer tracer(4);
    for (int i = 0; i < 10; ++i)
        tracer.complete("ev", "cat", 0, 1000, {});
    EXPECT_EQ(tracer.events(), 4u);
    EXPECT_EQ(tracer.dropped(), 6u);
}

// ---------------------------------------------------------------------
// Regression: prefetch refresh must not touch LRU recency
// ---------------------------------------------------------------------

/** Find @p n distinct vpns that map to one set for @p pid. */
std::vector<Vpn>
conflictingVpns(const SharedUtlbCache &cache, ProcId pid, std::size_t n)
{
    std::vector<Vpn> out;
    std::size_t want = cache.setIndex(pid, 1);
    for (Vpn v = 1; out.size() < n && v < 100000; ++v) {
        if (cache.setIndex(pid, v) == want)
            out.push_back(v);
    }
    EXPECT_EQ(out.size(), n);
    return out;
}

TEST(PrefetchRefreshRegression, RefreshDoesNotPromoteResidentLine)
{
    NicTimings timings;
    SharedUtlbCache cache(CacheConfig{8, 2, true}, timings);
    auto vpns = conflictingVpns(cache, 1, 3);
    Vpn a = vpns[0], b = vpns[1], c = vpns[2];

    cache.insert(1, a, 100, InsertMode::Demand);
    cache.insert(1, b, 200, InsertMode::Demand);
    ASSERT_TRUE(cache.lookup(1, a).hit);  // a is now MRU, b is LRU

    // A speculative refresh of b (already resident) rides along with
    // some other miss. The NIC never referenced b, so its recency
    // must not change: b stays LRU.
    cache.insert(1, b, 200, InsertMode::Prefetch);
    EXPECT_EQ(cache.refreshes(), 1u);

    auto evicted = cache.insert(1, c, 300, InsertMode::Demand);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->vpn, b) << "prefetch refresh polluted LRU "
                                  "order: the referenced line was "
                                  "evicted instead of the stale one";
    EXPECT_TRUE(cache.peek(1, a).has_value());
    EXPECT_FALSE(cache.peek(1, b).has_value());
}

TEST(PrefetchRefreshRegression, DemandRefreshStillPromotes)
{
    NicTimings timings;
    SharedUtlbCache cache(CacheConfig{8, 2, true}, timings);
    auto vpns = conflictingVpns(cache, 1, 3);
    Vpn a = vpns[0], b = vpns[1], c = vpns[2];

    cache.insert(1, a, 100, InsertMode::Demand);
    cache.insert(1, b, 200, InsertMode::Demand);
    ASSERT_TRUE(cache.lookup(1, a).hit);

    // A demand re-install of b IS a reference; b becomes MRU and the
    // next conflict evicts a.
    cache.insert(1, b, 201, InsertMode::Demand);
    auto evicted = cache.insert(1, c, 300, InsertMode::Demand);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->vpn, a);
    EXPECT_EQ(cache.peek(1, b), 201u);  // refresh updated the pfn
}

// ---------------------------------------------------------------------
// Regression: NicLookup::fetched counts installs, not run width
// ---------------------------------------------------------------------

/** A one-process UTLB stack (mirrors test_core_utlb's fixture). */
class ObsUtlbStack : public ::testing::Test, protected NodeStack
{
  protected:
    ObsUtlbStack() : space(1, physMem)
    {
        driver.registerProcess(space);
    }

    UserUtlb
    makeUtlb(const UtlbConfig &cfg = {})
    {
        return UserUtlb(driver, cache, timings, 1, cfg);
    }

    AddressSpace space;
};

TEST_F(ObsUtlbStack, FetchedCountsInstalledEntriesOnly)
{
    UtlbConfig cfg;
    cfg.prefetchEntries = 8;
    UserUtlb utlb = makeUtlb(cfg);

    // Pin exactly one page: the 8-wide DMA run has 7 invalid slots.
    ASSERT_EQ(driver.ioctlPinAndInstall(1, 10, 1).status,
              mem::PinStatus::Ok);
    auto nl = utlb.nicTranslate(10);
    EXPECT_TRUE(nl.miss);
    EXPECT_FALSE(nl.fault);
    EXPECT_EQ(nl.fetched, 1u)
        << "fetched must report installed entries, not the raw run "
           "width";
    // Only the demand entry landed in the cache.
    EXPECT_TRUE(cache.peek(1, 10).has_value());
    EXPECT_FALSE(cache.peek(1, 11).has_value());
}

TEST_F(ObsUtlbStack, FaultRepairFetchesSingleEntryAndCharges1Wide)
{
    UtlbConfig cfg;
    cfg.prefetchEntries = 8;
    UserUtlb utlb = makeUtlb(cfg);

    // Nothing pinned: the NIC faults, the host pins one page, and
    // the re-fetch must be the single repaired entry — not another
    // full prefetch-width DMA of slots known to be absent.
    auto nl = utlb.nicTranslate(20);
    EXPECT_TRUE(nl.miss);
    EXPECT_TRUE(nl.fault);
    EXPECT_EQ(nl.fetched, 1u);

    // Exact cost: miss probe + interrupt + 1-page pin ioctl +
    // 1-entry miss handling.
    SharedUtlbCache scratch(CacheConfig{256, 1, true}, timings);
    sim::Tick probe = scratch.lookup(1, 20).cost;
    EXPECT_EQ(nl.cost, probe + timings.interruptCost
                           + costs.pinCost(1)
                           + timings.missHandleCost(1));
}

// ---------------------------------------------------------------------
// Regression: removal taxonomy (evictions vs sheds vs invalidations)
// ---------------------------------------------------------------------

TEST(RemovalTaxonomyRegression, CountersSeparateCauses)
{
    NicTimings timings;
    SharedUtlbCache cache(CacheConfig{4, 1, true}, timings);
    auto vpns = conflictingVpns(cache, 1, 2);

    // Capacity eviction: a conflicting demand insert displaces LRU.
    cache.insert(1, vpns[0], 100);
    cache.insert(1, vpns[1], 200);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.sheds(), 0u);
    EXPECT_EQ(cache.invalidations(), 0u);

    // Coherence invalidation must not masquerade as an eviction.
    EXPECT_TRUE(cache.invalidate(1, vpns[1]));
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.invalidations(), 1u);

    // Pin-budget shedding is its own category.
    cache.insert(1, 7, 300);
    ASSERT_TRUE(cache.shed(1, 7).has_value());
    EXPECT_EQ(cache.sheds(), 1u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.invalidations(), 1u);

    // Whole-cache clears are a fourth bucket, visible via the stats
    // tree. Pick two vpns in different sets so neither insert evicts.
    Vpn y = 9;
    while (cache.setIndex(1, y) == cache.setIndex(1, 8))
        ++y;
    cache.insert(1, 8, 400);
    cache.insert(1, y, 500);
    cache.clear();
    const auto *drops = dynamic_cast<const sim::Counter *>(
        cache.stats().find("clear_drops"));
    ASSERT_NE(drops, nullptr);
    EXPECT_EQ(drops->value(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);

    // And the conservation audit still balances.
    check::AuditReport report;
    cache.audit(report);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(RemovalTaxonomyRegression, ProcessInvalidationCountsPerLine)
{
    NicTimings timings;
    SharedUtlbCache cache(CacheConfig{16, 1, true}, timings);
    for (Vpn v = 0; v < 5; ++v)
        cache.insert(2, v, 100 + v);
    EXPECT_EQ(cache.invalidateProcess(2), 5u);
    EXPECT_EQ(cache.invalidations(), 5u);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.validEntries(), 0u);
}

} // namespace
