/**
 * @file
 * The one JSON reader, and the one string escaper, for every record
 * the program writes and reads back: the durable-run WAL and
 * manifest, crash records, job mixes and job traces.
 *
 * parse() is strict RFC 8259 and reads the whole input as exactly one
 * value: trailing content, duplicate keys, control characters inside
 * strings and nesting deeper than kMaxDepth are errors. It never calls
 * fatal(); it reports "<reason> at offset N" and the caller decides
 * whether a bad record is skipped or fatal.
 *
 * Numbers keep their literal text, so counts convert exactly (digits
 * only, never through a double) and doubles through strtod, which
 * makes "%.17g" output round-trip bit for bit.
 *
 * Writers are hand-built csprintf formats sharing escape(), which
 * writes \u00XX for control characters and never a wider escape. The
 * reader therefore decodes \u escapes only up to U+007F and rejects
 * wider ones instead of keeping part of the code point.
 */

#ifndef DCL1_COMMON_JSON_HH
#define DCL1_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dcl1::json
{

/** Deepest array/object nesting parse() accepts. */
constexpr unsigned kMaxDepth = 64;

/** One parsed JSON value. */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::string text;              ///< string, or a number's literal
    std::vector<Value> items;      ///< array elements or member values
    std::vector<std::string> keys; ///< object keys; keys[i] names items[i]

    /** Member @p key of an object; null when absent or not an object. */
    const Value *find(const std::string &key) const;

    /// @name Typed reads; false (and @p out untouched) on a mismatch
    /// @{
    bool get(std::string &out) const;
    bool get(bool &out) const;
    bool get(std::uint64_t &out) const; ///< digits only, no overflow
    bool get(double &out) const;        ///< strtod; finite only
    /// @}

    /** Member @p key read into @p out; false when absent or mistyped. */
    template <typename T>
    bool
    get(const std::string &key, T &out) const
    {
        const Value *m = find(key);
        return m && m->get(out);
    }

    /** As get(key, out), but an absent member passes untouched. */
    template <typename T>
    bool
    getOptional(const std::string &key, T &out) const
    {
        const Value *m = find(key);
        return !m || m->get(out);
    }
};

/**
 * Parse @p text as exactly one JSON value into @p out; on failure
 * false, with @p error set to "<reason> at offset N".
 */
bool parse(const std::string &text, Value &out, std::string &error);

/** Escape @p s for a JSON double-quoted string literal. */
std::string escape(const std::string &s);

} // namespace dcl1::json

#endif // DCL1_COMMON_JSON_HH
