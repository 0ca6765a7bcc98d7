/**
 * @file
 * Minimal streaming JSON writer.
 *
 * Every machine-readable artifact this project emits — the stats
 * tree (`tlbsim --stats-json`), the Chrome trace-event stream
 * (`--trace-out`), and the bench harnesses' `BENCH_*.json` files —
 * goes through this one writer, so escaping and number formatting
 * are uniform and schema tests only have to trust one serializer.
 *
 * The writer is strictly streaming (no DOM): callers open and close
 * objects/arrays in order and the writer tracks comma placement and
 * indentation. Misnesting panics, since it would emit malformed JSON
 * that downstream tooling (catapult, jq, the golden tests) would
 * reject anyway.
 */

#ifndef UTLB_SIM_JSON_HPP
#define UTLB_SIM_JSON_HPP

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/log.hpp"

namespace utlb::sim {

/** Append @p s to @p out as a double-quoted JSON string with full
 *  escaping. */
inline void
jsonEscape(std::string &out, std::string_view s)
{
    out += '"';
    std::size_t run = 0;  // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
        auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            static const char hex[] = "0123456789abcdef";
            const char esc[] = {'\\', 'u', '0', '0', hex[c >> 4],
                                hex[c & 0xf]};
            out.append(esc, sizeof(esc));
          }
        }
    }
    out.append(s, run, s.size() - run);
    out += '"';
}

/**
 * Streaming JSON writer with automatic comma/indent management.
 *
 * Inside an object use the field() overloads (key + value) and the
 * keyed beginObject/beginArray; inside an array use the value()
 * overloads and the unkeyed begin calls.
 *
 * Output collects in a string and reaches the stream in blocks of
 * about kFlushBytes, and in full as soon as the top-level object or
 * array is closed, so a caller may read or extend the stream right
 * after the last close.
 */
class JsonWriter
{
  public:
    /** Buffered bytes that trigger a write to the stream. */
    static constexpr std::size_t kFlushBytes = 64 * 1024;

    explicit JsonWriter(std::ostream &os, bool pretty = true)
        : out(&os), prettyPrint(pretty)
    {}

    /** Writes out whatever an unfinished document left buffered. */
    ~JsonWriter() { flush(); }

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    /** @name Containers @{ */
    void beginObject() { open('{', nullptr); }
    void beginObject(std::string_view key) { open('{', &key); }
    void endObject() { close('}'); }
    void beginArray() { open('[', nullptr); }
    void beginArray(std::string_view key) { open('[', &key); }
    void endArray() { close(']'); }
    /** @} */

    /** @name Object fields @{ */
    void
    field(std::string_view key, std::string_view v)
    {
        prefix(&key);
        jsonEscape(buf, v);
    }

    void
    field(std::string_view key, const char *v)
    {
        field(key, std::string_view(v));
    }

    void
    field(std::string_view key, std::uint64_t v)
    {
        prefix(&key);
        writeUint(v);
    }

    void
    field(std::string_view key, double v)
    {
        prefix(&key);
        writeDouble(v);
    }

    void
    field(std::string_view key, bool v)
    {
        prefix(&key);
        buf += v ? "true" : "false";
    }
    /** @} */

    /**
     * Embed pre-serialized JSON verbatim (the caller vouches for its
     * validity; indentation of the embedded text is preserved as-is).
     * @{
     */
    void
    rawField(std::string_view key, std::string_view json)
    {
        prefix(&key);
        buf += json;
    }

    void
    rawValue(std::string_view json)
    {
        prefix(nullptr);
        buf += json;
    }
    /** @} */

    /** @name Array elements @{ */
    void
    value(std::string_view v)
    {
        prefix(nullptr);
        jsonEscape(buf, v);
    }

    void
    value(std::uint64_t v)
    {
        prefix(nullptr);
        writeUint(v);
    }

    void
    value(double v)
    {
        prefix(nullptr);
        writeDouble(v);
    }
    /** @} */

    /** True once every opened container has been closed. */
    bool done() const { return depth.empty() && emitted; }

  private:
    struct Level {
        char kind;       //!< '{' or '['
        bool hasItems = false;
    };

    void
    writeUint(std::uint64_t v)
    {
        char tmp[20];
        auto [end, ec] = std::to_chars(tmp, tmp + sizeof(tmp), v);
        buf.append(tmp, end);
    }

    void
    writeDouble(double v)
    {
        // JSON has no NaN/Infinity literal; empty-histogram min/max
        // are +-inf, so map non-finite values to 0 rather than emit
        // a token every parser rejects.
        if (!std::isfinite(v))
            v = 0.0;
        char tmp[32];
        int n = std::snprintf(tmp, sizeof(tmp), "%.12g", v);
        buf.append(tmp, static_cast<std::size_t>(n));
    }

    void
    flush()
    {
        if (buf.empty())
            return;
        out->write(buf.data(), static_cast<std::streamsize>(buf.size()));
        buf.clear();
    }

    void
    prefix(const std::string_view *key)
    {
        if (buf.size() >= kFlushBytes)
            flush();
        if (!depth.empty()) {
            Level &top = depth.back();
            if ((top.kind == '{') != (key != nullptr))
                panic("JsonWriter: %s used inside %c",
                      key ? "keyed write" : "bare value", top.kind);
            if (top.hasItems)
                buf += ',';
            top.hasItems = true;
            newlineIndent();
        } else if (emitted) {
            panic("JsonWriter: multiple top-level values");
        }
        if (key) {
            jsonEscape(buf, *key);
            buf += prettyPrint ? ": " : ":";
        }
        emitted = true;
    }

    void
    open(char kind, const std::string_view *key)
    {
        prefix(key);
        buf += kind;
        depth.push_back(Level{kind, false});
    }

    void
    close(char kind)
    {
        char closer = kind;
        char opener = (kind == '}') ? '{' : '[';
        if (depth.empty() || depth.back().kind != opener)
            panic("JsonWriter: mismatched close '%c'", closer);
        bool hadItems = depth.back().hasItems;
        depth.pop_back();
        if (hadItems)
            newlineIndent();
        buf += closer;
        if (depth.empty())
            flush();
    }

    void
    newlineIndent()
    {
        if (!prettyPrint)
            return;
        buf += '\n';
        buf.append(2 * depth.size(), ' ');
    }

    std::ostream *out;
    bool prettyPrint;
    bool emitted = false;
    std::vector<Level> depth;
    std::string buf;  //!< output not yet handed to *out
};

} // namespace utlb::sim

#endif // UTLB_SIM_JSON_HPP
