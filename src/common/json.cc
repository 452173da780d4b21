#include "common/json.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/log.hh"

namespace dcl1::json
{

namespace
{

/**
 * Short escapes as (letter, byte) pairs. escape() writes the first
 * five; the reader also accepts \/, \b and \f.
 */
constexpr char kShortEscapes[] = "\"\"\\\\n\nr\rt\t//b\bf\f";
constexpr std::size_t kWrittenEscapes = 10;

/** Recursive descent over one input; depth is bounded by kMaxDepth. */
struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    const char *reason = "";

    /** Record @p why, or "unexpected end of input" once it ran out. */
    bool
    fail(const char *why)
    {
        reason = pos < text.size() ? why : "unexpected end of input";
        return false;
    }

    char peek() const { return pos < text.size() ? text[pos] : '\0'; }

    void
    skipWs()
    {
        pos = std::min(text.size(), text.find_first_not_of(" \t\n\r", pos));
    }

    bool
    expect(char c, const char *why)
    {
        skipWs();
        if (peek() != c)
            return fail(why);
        ++pos;
        return true;
    }

    bool
    value(Value &out, unsigned depth)
    {
        skipWs();
        const char c = peek();
        if (c == '[' || c == '{') {
            if (depth == kMaxDepth)
                return fail("nesting deeper than 64 levels");
            out.kind = c == '[' ? Value::Kind::Array : Value::Kind::Object;
            return container(out, depth + 1, c == '[' ? ']' : '}');
        }
        if (c == '"') {
            out.kind = Value::Kind::String;
            return string(out.text);
        }
        for (const char *word : {"true", "false", "null"}) {
            const std::size_t len = std::strlen(word);
            if (text.compare(pos, len, word) == 0) {
                pos += len;
                out.kind = *word == 'n' ? Value::Kind::Null
                                        : Value::Kind::Bool;
                out.boolean = *word == 't';
                return true;
            }
        }
        out.kind = Value::Kind::Number;
        return number(out.text);
    }

    /** Array or object body; @p pos is on its opening bracket. */
    bool
    container(Value &out, unsigned depth, char close)
    {
        ++pos;
        skipWs();
        if (peek() == close) {
            ++pos;
            return true;
        }
        while (true) {
            if (close == '}') {
                skipWs();
                const std::size_t key_at = pos;
                std::string key;
                if (peek() != '"')
                    return fail("expected a string key");
                if (!string(key))
                    return false;
                if (out.find(key)) {
                    pos = key_at;
                    return fail("duplicate key");
                }
                out.keys.push_back(std::move(key));
                if (!expect(':', "expected ':'"))
                    return false;
            }
            out.items.emplace_back();
            if (!value(out.items.back(), depth))
                return false;
            skipWs();
            if (peek() != ',')
                return expect(close, close == '}' ? "expected ',' or '}'"
                                                  : "expected ',' or ']'");
            ++pos;
        }
    }

    /** String body; @p pos is on its opening quote. */
    bool
    string(std::string &out)
    {
        for (++pos; pos < text.size(); ++pos) {
            const char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (++pos >= text.size())
                break;
            if (text[pos] == 'u') {
                const std::string hex = text.substr(pos + 1, 4);
                if (hex.size() != 4 ||
                    hex.find_first_not_of("0123456789abcdefABCDEF") !=
                        std::string::npos)
                    return fail("malformed \\u escape");
                const unsigned long code = std::strtoul(hex.c_str(),
                                                        nullptr, 16);
                if (code > 0x7f)
                    return fail("\\u escape above U+007F");
                out += static_cast<char>(code);
                pos += 4;
                continue;
            }
            std::size_t i = 0;
            while (kShortEscapes[i] && kShortEscapes[i] != text[pos])
                i += 2;
            if (!kShortEscapes[i])
                return fail("invalid escape");
            out += kShortEscapes[i + 1];
        }
        return fail("unexpected end of input");
    }

    /** RFC 8259 number grammar; the literal text is kept as is. */
    bool
    number(std::string &out)
    {
        const std::size_t start = pos;
        auto digits = [this] {
            const std::size_t from = pos;
            while (peek() >= '0' && peek() <= '9')
                ++pos;
            return pos > from;
        };
        if (peek() == '-')
            ++pos;
        if (peek() == '0')
            ++pos;
        else if (!digits())
            return fail(pos == start ? "expected a value"
                                     : "malformed number");
        if (peek() == '.') {
            ++pos;
            if (!digits())
                return fail("malformed number");
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos;
            if (peek() == '+' || peek() == '-')
                ++pos;
            if (!digits())
                return fail("malformed number");
        }
        out = text.substr(start, pos - start);
        return true;
    }
};

} // anonymous namespace

const Value *
Value::find(const std::string &key) const
{
    for (std::size_t i = 0; i < keys.size(); ++i)
        if (keys[i] == key)
            return &items[i];
    return nullptr;
}

bool
Value::get(std::string &out) const
{
    if (kind == Kind::String)
        out = text;
    return kind == Kind::String;
}

bool
Value::get(bool &out) const
{
    if (kind == Kind::Bool)
        out = boolean;
    return kind == Kind::Bool;
}

bool
Value::get(std::uint64_t &out) const
{
    if (kind != Kind::Number)
        return false;
    std::uint64_t v = 0;
    for (const char c : text) {
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (c < '0' || c > '9' || v > (UINT64_MAX - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

bool
Value::get(double &out) const
{
    if (kind != Kind::Number)
        return false;
    const double v = std::strtod(text.c_str(), nullptr);
    if (!std::isfinite(v))
        return false;
    out = v;
    return true;
}

bool
parse(const std::string &text, Value &out, std::string &error)
{
    Parser parser{text};
    out = Value();
    if (parser.value(out, 0)) {
        parser.skipWs();
        if (parser.pos == text.size())
            return true;
        parser.fail("trailing content");
    }
    error = csprintf("%s at offset %zu", parser.reason, parser.pos);
    return false;
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        std::size_t i = 1;
        while (i < kWrittenEscapes && kShortEscapes[i] != c)
            i += 2;
        if (i < kWrittenEscapes)
            (out += '\\') += kShortEscapes[i - 1];
        else if (static_cast<unsigned char>(c) < 0x20)
            out += csprintf("\\u%04x", static_cast<unsigned>(c));
        else
            out += c;
    }
    return out;
}

} // namespace dcl1::json
