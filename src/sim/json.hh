/**
 * @file
 * Minimal JSON document model: build, serialize, parse.
 *
 * Exists so the campaign subsystem and the stats exporter can emit
 * machine-readable artifacts (BENCH_*.json) without an external
 * dependency.  Three properties matter here and drove the design:
 *
 *  - Deterministic output: object members keep insertion order and
 *    doubles serialize with the shortest representation that parses
 *    back to the identical bit pattern, so the same data always dumps
 *    to the same bytes (campaign reports are diffed across runs).
 *  - Lossless integers: counters are uint64 and may exceed 2^53, so
 *    numbers remember whether they were created as unsigned, signed
 *    or floating point and serialize accordingly.
 *  - Round-tripping: parse(dump(x)) == x for every document built
 *    through this API.
 *
 * Campaign reports hold every cell's stats tree (hundreds of thousands
 * of nodes on the Fig. 11 grid), so values are small and copies share
 * their payloads; see docs/perf.md, "Reports and stats JSON".
 */

#ifndef TSOPER_SIM_JSON_HH
#define TSOPER_SIM_JSON_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace tsoper
{

/**
 * A JSON value: 16 bytes.  Null, bools and numbers are stored inline.
 * String, array and object payloads are reference-counted and shared
 * between copies, so copying a document is O(1) however large it is.
 * push() and set() copy a payload first when another value shares it
 * (copy-on-write), so a mutation is never visible through a copy.
 * Values that share payloads may be used from different threads, each
 * thread mutating only its own values; one value is not mutated while
 * another thread reads or copies it.  A moved-from value is null
 * (assign to it before using it again).
 */
class Json
{
  public:
    enum class Type : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    using Members = std::vector<std::pair<std::string, Json>>;

    Json() = default; ///< null
    Json(bool b) : type_(Type::Bool) { v_.b = b; }
    Json(double d) : type_(Type::Number), rep_(NumRep::Dbl) { v_.d = d; }
    Json(std::int64_t i) : type_(Type::Number), rep_(NumRep::Int)
    {
        v_.i = i;
    }
    Json(std::uint64_t u) : type_(Type::Number), rep_(NumRep::Uint)
    {
        v_.u = u;
    }
    Json(int i) : Json(static_cast<std::int64_t>(i)) {}
    Json(unsigned u) : Json(static_cast<std::uint64_t>(u)) {}
    Json(const char *s);
    Json(std::string s);

    Json(const Json &other)
        : type_(other.type_), rep_(other.rep_), v_(other.v_)
    {
        if (boxed())
            v_.box->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Json(Json &&other) noexcept
        : type_(other.type_), rep_(other.rep_), v_(other.v_)
    {
        other.type_ = Type::Null;
    }
    Json &
    operator=(Json other) noexcept
    {
        std::swap(type_, other.type_);
        std::swap(rep_, other.rep_);
        std::swap(v_, other.v_);
        return *this;
    }
    ~Json()
    {
        if (boxed() &&
            v_.box->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
            destroy();
    }

    /** An empty array with room for @p capacity elements: pushing up
     *  to that many allocates nothing more. */
    static Json array(std::size_t capacity = 0);
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    bool asBool() const;
    double asDouble() const;
    std::int64_t asInt() const;
    std::uint64_t asUint() const;
    const std::string &asString() const;

    /** Array: append an element. */
    Json &push(Json v);
    /** Array/object: element count. */
    std::size_t size() const;
    /** Array: element by index (fatal when out of range). */
    const Json &at(std::size_t i) const;

    /** Object: set @p key (replacing an existing member in place,
     *  appending otherwise).  Returns *this for chaining. */
    Json &set(const std::string &key, Json v);
    /** Object: member by key, nullptr when absent. */
    const Json *find(const std::string &key) const;
    /** Object: member by key (fatal when absent). */
    const Json &operator[](const std::string &key) const;
    /** Object: members in insertion order. */
    const Members &members() const;

    bool operator==(const Json &other) const;
    bool operator!=(const Json &other) const { return !(*this == other); }

    /**
     * Serialize.  @p indent < 0 emits the compact single-line form;
     * @p indent >= 0 pretty-prints with that many spaces per level.
     */
    std::string dump(int indent = -1) const;

    /**
     * Serialize to @p os, byte for byte what dump(@p indent) returns,
     * in bounded chunks rather than one string of the whole document.
     * Check @p os for I/O errors afterwards.
     */
    void dump(std::ostream &os, int indent = -1) const;

    /**
     * Parse @p text into @p out.  On failure returns false and, when
     * @p err is non-null, stores a message with the byte offset.
     * Trailing non-whitespace after the document is an error.
     */
    static bool parse(const std::string &text, Json *out,
                      std::string *err = nullptr);

  private:
    enum class NumRep : std::uint8_t
    {
        Dbl,
        Int,
        Uint,
    };

    /** Header of a shared string/array/object payload. */
    struct Payload
    {
        std::atomic<std::size_t> refs{1};
    };

    bool
    boxed() const
    {
        return type_ >= Type::String;
    }
    template <class T> struct Box;
    struct Elements;

    void destroy();
    /** Array elements. */
    std::span<const Json> elements() const;
    /** The object payload, copied first unless this value is its only
     *  owner. */
    template <class T> T &unshared();

    void dumpTo(std::string &out, int indent, int depth,
                std::ostream *sink) const;
    void dumpNumber(std::string &out) const;

    union Value
    {
        std::uint64_t u;
        std::int64_t i;
        double d;
        bool b;
        /** String/Array/Object payload, never null. */
        Payload *box;
    };

    Type type_ = Type::Null;
    NumRep rep_ = NumRep::Dbl;
    Value v_{};
};

} // namespace tsoper

#endif // TSOPER_SIM_JSON_HH
