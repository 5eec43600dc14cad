#include "sim/json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <ostream>

#include "sim/log.hh"

namespace tsoper
{

/** A shared payload: the reference count, then the value. */
template <class T>
struct Json::Box : Json::Payload
{
    explicit Box(T v) : value(std::move(v)) {}
    T value;
};

/** An array payload: the header, then room for `capacity` elements in
 *  the same allocation, the first `size` of them live.  A sized array
 *  is one allocation; push() past the room moves the elements to a
 *  block twice as large. */
struct Json::Elements : Json::Payload
{
    std::size_t size = 0;
    std::size_t capacity = 0;

    Json *data() { return reinterpret_cast<Json *>(this + 1); }
    const Json *
    data() const
    {
        return reinterpret_cast<const Json *>(this + 1);
    }

    static Elements *
    make(std::size_t capacity)
    {
        static_assert(sizeof(Elements) % alignof(Json) == 0,
                      "elements follow the header aligned");
        auto *e = new (::operator new(sizeof(Elements) +
                                      capacity * sizeof(Json))) Elements;
        e->capacity = capacity;
        return e;
    }

    static void
    release(Elements *e)
    {
        std::destroy_n(e->data(), e->size);
        e->~Elements();
        ::operator delete(e);
    }
};

static_assert(sizeof(Json) == 16, "a Json value is a tag and one word");

namespace
{

/** Chunk size of a streamed dump(). */
constexpr std::size_t kFlushBytes = 64 * 1024;

} // namespace

Json::Json(const char *s) : Json(std::string(s)) {}

Json::Json(std::string s) : type_(Type::String)
{
    v_.box = new Box<std::string>(std::move(s));
}

Json
Json::array(std::size_t capacity)
{
    Json j;
    j.type_ = Type::Array;
    j.v_.box = Elements::make(capacity);
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    j.v_.box = new Box<Members>(Members{});
    return j;
}

void
Json::destroy()
{
    if (type_ == Type::String)
        delete static_cast<Box<std::string> *>(v_.box);
    else if (type_ == Type::Array)
        Elements::release(static_cast<Elements *>(v_.box));
    else
        delete static_cast<Box<Members> *>(v_.box);
}

// Copy-on-write: a payload is mutated in place only while this value
// is its sole owner.  The acquire load pairs with the release in the
// destructor of the last other owner, so its reads happen before our
// writes.  push() follows the same rule for arrays.
template <class T>
T &
Json::unshared()
{
    auto *box = static_cast<Box<T> *>(v_.box);
    if (box->refs.load(std::memory_order_acquire) != 1) {
        auto *fresh = new Box<T>(box->value);
        const Json shared = std::move(*this); // drops our reference
        type_ = shared.type_;
        v_.box = box = fresh;
    }
    return box->value;
}

bool
Json::asBool() const
{
    tsoper_assert(type_ == Type::Bool, "Json::asBool on non-bool");
    return v_.b;
}

double
Json::asDouble() const
{
    tsoper_assert(type_ == Type::Number, "Json::asDouble on non-number");
    switch (rep_) {
      case NumRep::Dbl: return v_.d;
      case NumRep::Int: return static_cast<double>(v_.i);
      case NumRep::Uint: return static_cast<double>(v_.u);
    }
    return 0.0;
}

std::int64_t
Json::asInt() const
{
    tsoper_assert(type_ == Type::Number, "Json::asInt on non-number");
    switch (rep_) {
      case NumRep::Dbl: return static_cast<std::int64_t>(v_.d);
      case NumRep::Int: return v_.i;
      case NumRep::Uint: return static_cast<std::int64_t>(v_.u);
    }
    return 0;
}

std::uint64_t
Json::asUint() const
{
    tsoper_assert(type_ == Type::Number, "Json::asUint on non-number");
    switch (rep_) {
      case NumRep::Dbl: return static_cast<std::uint64_t>(v_.d);
      case NumRep::Int: return static_cast<std::uint64_t>(v_.i);
      case NumRep::Uint: return v_.u;
    }
    return 0;
}

const std::string &
Json::asString() const
{
    tsoper_assert(type_ == Type::String, "Json::asString on non-string");
    return static_cast<const Box<std::string> *>(v_.box)->value;
}

Json &
Json::push(Json v)
{
    tsoper_assert(type_ == Type::Array, "Json::push on non-array");
    auto *arr = static_cast<Elements *>(v_.box);
    const bool shared = arr->refs.load(std::memory_order_acquire) != 1;
    if (shared || arr->size == arr->capacity) {
        Elements *fresh = Elements::make(
            arr->size < arr->capacity
                ? arr->capacity
                : std::max<std::size_t>(4, 2 * arr->capacity));
        if (shared)
            std::uninitialized_copy_n(arr->data(), arr->size,
                                      fresh->data());
        else
            std::uninitialized_move_n(arr->data(), arr->size,
                                      fresh->data());
        fresh->size = arr->size;
        const Json old = std::move(*this); // drops our reference
        type_ = Type::Array;
        v_.box = arr = fresh;
    }
    new (arr->data() + arr->size) Json(std::move(v));
    ++arr->size;
    return *this;
}

std::span<const Json>
Json::elements() const
{
    const auto *arr = static_cast<const Elements *>(v_.box);
    return {arr->data(), arr->size};
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return elements().size();
    if (type_ == Type::Object)
        return members().size();
    return 0;
}

const Json &
Json::at(std::size_t i) const
{
    tsoper_assert(type_ == Type::Array, "Json::at on non-array");
    const std::span<const Json> arr = elements();
    tsoper_assert(i < arr.size(), "Json::at index ", i, " out of range");
    return arr[i];
}

Json &
Json::set(const std::string &key, Json v)
{
    tsoper_assert(type_ == Type::Object, "Json::set on non-object");
    Members &obj = unshared<Members>();
    for (auto &[k, existing] : obj) {
        if (k == key) {
            existing = std::move(v);
            return *this;
        }
    }
    obj.emplace_back(key, std::move(v));
    return *this;
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &[k, v] : members())
        if (k == key)
            return &v;
    return nullptr;
}

const Json &
Json::operator[](const std::string &key) const
{
    const Json *v = find(key);
    tsoper_assert(v, "Json object has no member \"", key, "\"");
    return *v;
}

const Json::Members &
Json::members() const
{
    tsoper_assert(type_ == Type::Object, "Json::members on non-object");
    return static_cast<const Box<Members> *>(v_.box)->value;
}

bool
Json::operator==(const Json &other) const
{
    if (type_ != other.type_)
        return false;
    if (boxed() && v_.box == other.v_.box)
        return true; // shared payload
    switch (type_) {
      case Type::Null: return true;
      case Type::Bool: return v_.b == other.v_.b;
      case Type::Number:
        // Integer-valued numbers compare by value across reps; mixed
        // float/integer comparisons go through double.
        if (rep_ == other.rep_) {
            switch (rep_) {
              case NumRep::Dbl: return v_.d == other.v_.d;
              case NumRep::Int: return v_.i == other.v_.i;
              case NumRep::Uint: return v_.u == other.v_.u;
            }
        }
        return asDouble() == other.asDouble();
      case Type::String: return asString() == other.asString();
      case Type::Array:
        return std::ranges::equal(elements(), other.elements());
      case Type::Object: return members() == other.members();
    }
    return false;
}

namespace
{

void
escapeString(const std::string &s, std::string &out)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

/** Significant digits of a decimal number: "1.20e-03" -> 2. */
int
significantDigits(const char *first, const char *last)
{
    const char *lead = nullptr, *trail = nullptr;
    for (const char *p = first; p != last && *p != 'e'; ++p) {
        if (*p < '1' || *p > '9')
            continue;
        if (!lead)
            lead = p;
        trail = p;
    }
    if (!lead)
        return 0;
    int n = 0;
    for (const char *p = lead; p <= trail; ++p)
        n += *p >= '0' && *p <= '9';
    return n;
}

} // namespace

void
Json::dumpNumber(std::string &out) const
{
    char buf[64];
    char *const end = buf + sizeof(buf);
    switch (rep_) {
      case NumRep::Int:
        out.append(buf, std::to_chars(buf, end, v_.i).ptr);
        return;
      case NumRep::Uint:
        out.append(buf, std::to_chars(buf, end, v_.u).ptr);
        return;
      case NumRep::Dbl:
        break;
    }
    const double d = v_.d;
    if (!std::isfinite(d)) {
        out += "null"; // JSON has no inf/nan
        return;
    }
    // The shortest "%.*g" form that parses back to the same double, so
    // identical values always serialize to identical bytes.
    // to_chars(general, prec) formats exactly as "%.*g" does.  No form
    // with fewer significant digits than to_chars' shortest round-trip
    // output can round-trip, so the search starts there: usually its
    // first step succeeds.  (The scientific form, because the fixed one
    // spells out every integer digit of a large value.)
    const int shortest = significantDigits(
        buf, std::to_chars(buf, end, d, std::chars_format::scientific).ptr);
    char *last = buf;
    for (int prec = shortest > 1 ? shortest : 1; prec <= 17; ++prec) {
        last = std::to_chars(buf, end, d, std::chars_format::general, prec)
                   .ptr;
        // On a range error `back` keeps 0.0, which d (non-zero) is not.
        double back = 0.0;
        std::from_chars(buf, last, back);
        if (back == d)
            break;
    }
    out.append(buf, last);
}

void
Json::dumpTo(std::string &out, int indent, int depth,
             std::ostream *sink) const
{
    const bool pretty = indent >= 0;
    auto newline = [&](int d) {
        if (pretty) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent) *
                           static_cast<std::size_t>(d),
                       ' ');
        }
    };
    auto flush = [&] {
        if (sink && out.size() >= kFlushBytes) {
            sink->write(out.data(),
                        static_cast<std::streamsize>(out.size()));
            out.clear();
        }
    };

    switch (type_) {
      case Type::Null:
        out += "null";
        return;
      case Type::Bool:
        out += v_.b ? "true" : "false";
        return;
      case Type::Number:
        dumpNumber(out);
        return;
      case Type::String:
        escapeString(asString(), out);
        return;
      case Type::Array: {
        const std::span<const Json> arr = elements();
        if (arr.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            arr[i].dumpTo(out, indent, depth + 1, sink);
            flush();
        }
        newline(depth);
        out += ']';
        return;
      }
      case Type::Object: {
        const Members &obj = members();
        if (obj.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            escapeString(obj[i].first, out);
            out += pretty ? ": " : ":";
            obj[i].second.dumpTo(out, indent, depth + 1, sink);
            flush();
        }
        newline(depth);
        out += '}';
        return;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0, nullptr);
    return out;
}

void
Json::dump(std::ostream &os, int indent) const
{
    std::string buf;
    buf.reserve(kFlushBytes + kFlushBytes / 4);
    dumpTo(buf, indent, 0, &os);
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

// --- Parser ----------------------------------------------------------

namespace
{

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = msg + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word, Json value, Json *out)
    {
        const std::size_t n = std::strlen(word);
        if (text.compare(pos, n, word) != 0)
            return fail(std::string("invalid literal, expected ") + word);
        pos += n;
        *out = std::move(value);
        return true;
    }

    bool
    parseString(std::string *out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        std::string s;
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"') {
                *out = std::move(s);
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                s += c;
                continue;
            }
            if (pos >= text.size())
                return fail("unterminated escape");
            const char e = text[pos++];
            switch (e) {
              case '"': s += '"'; break;
              case '\\': s += '\\'; break;
              case '/': s += '/'; break;
              case 'b': s += '\b'; break;
              case 'f': s += '\f'; break;
              case 'n': s += '\n'; break;
              case 'r': s += '\r'; break;
              case 't': s += '\t'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("invalid hex digit in \\u escape");
                }
                // Encode the BMP code point as UTF-8 (surrogate pairs
                // are not produced by our own serializer).
                if (cp < 0x80) {
                    s += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    s += static_cast<char>(0xC0 | (cp >> 6));
                    s += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    s += static_cast<char>(0xE0 | (cp >> 12));
                    s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    s += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default:
                return fail("invalid escape character");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Json *out)
    {
        const std::size_t start = pos;
        bool isInteger = true;
        if (consume('-')) {
        }
        while (pos < text.size() && std::isdigit(
                   static_cast<unsigned char>(text[pos])))
            ++pos;
        if (pos < text.size() && text[pos] == '.') {
            isInteger = false;
            ++pos;
            while (pos < text.size() && std::isdigit(
                       static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            isInteger = false;
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            while (pos < text.size() && std::isdigit(
                       static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        const std::string tok = text.substr(start, pos - start);
        if (tok.empty() || tok == "-")
            return fail("invalid number");
        errno = 0;
        if (isInteger) {
            char *end = nullptr;
            if (tok[0] == '-') {
                const long long v = std::strtoll(tok.c_str(), &end, 10);
                if (errno != ERANGE && end == tok.c_str() + tok.size()) {
                    *out = Json(static_cast<std::int64_t>(v));
                    return true;
                }
            } else {
                const unsigned long long v =
                    std::strtoull(tok.c_str(), &end, 10);
                if (errno != ERANGE && end == tok.c_str() + tok.size()) {
                    *out = Json(static_cast<std::uint64_t>(v));
                    return true;
                }
            }
            errno = 0; // overflowing integers fall through to double
        }
        char *end = nullptr;
        const double d = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            return fail("invalid number");
        *out = Json(d);
        return true;
    }

    bool
    parseValue(Json *out, int depth)
    {
        if (depth > 200)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == 'n')
            return literal("null", Json(), out);
        if (c == 't')
            return literal("true", Json(true), out);
        if (c == 'f')
            return literal("false", Json(false), out);
        if (c == '"') {
            std::string s;
            if (!parseString(&s))
                return false;
            *out = Json(std::move(s));
            return true;
        }
        if (c == '[') {
            ++pos;
            Json arr = Json::array();
            skipWs();
            if (consume(']')) {
                *out = std::move(arr);
                return true;
            }
            while (true) {
                Json elem;
                if (!parseValue(&elem, depth + 1))
                    return false;
                arr.push(std::move(elem));
                skipWs();
                if (consume(']'))
                    break;
                if (!consume(','))
                    return fail("expected ',' or ']'");
            }
            *out = std::move(arr);
            return true;
        }
        if (c == '{') {
            ++pos;
            Json obj = Json::object();
            skipWs();
            if (consume('}')) {
                *out = std::move(obj);
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(&key))
                    return false;
                skipWs();
                if (!consume(':'))
                    return fail("expected ':'");
                Json value;
                if (!parseValue(&value, depth + 1))
                    return false;
                obj.set(key, std::move(value));
                skipWs();
                if (consume('}'))
                    break;
                if (!consume(','))
                    return fail("expected ',' or '}'");
            }
            *out = std::move(obj);
            return true;
        }
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return parseNumber(out);
        return fail("unexpected character");
    }
};

} // namespace

bool
Json::parse(const std::string &text, Json *out, std::string *err)
{
    Parser p{text, 0, {}};
    Json result;
    if (!p.parseValue(&result, 0)) {
        if (err)
            *err = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (err)
            *err = "trailing characters at offset " + std::to_string(p.pos);
        return false;
    }
    *out = std::move(result);
    return true;
}

} // namespace tsoper
