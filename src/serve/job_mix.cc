#include "serve/job_mix.hh"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "workload/app_catalog.hh"

namespace dcl1::serve
{

namespace
{

/**
 * Minimal recursive-descent scanner for the flat JSON shapes the mix
 * and trace formats use: arrays of objects whose values are strings or
 * numbers. Anything else (nesting, booleans, null) is a format error.
 */
struct Scanner
{
    const std::string &text;
    const std::string &what;
    std::size_t pos = 0;

    [[noreturn]] void
    bail(const char *msg) const
    {
        fatal("%s: %s at offset %zu", what.c_str(), msg, pos);
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    atEnd()
    {
        skipWs();
        return pos >= text.size();
    }

    char
    peek()
    {
        skipWs();
        if (pos >= text.size())
            bail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            bail("unexpected character");
        ++pos;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\')
                bail("escapes are not supported in mix/trace strings");
            out.push_back(text[pos++]);
        }
        if (pos >= text.size())
            bail("unterminated string");
        ++pos;
        return out;
    }

    double
    parseNumber()
    {
        skipWs();
        const std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '-' || text[pos] == '+' ||
                text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E'))
            ++pos;
        if (pos == start)
            bail("expected a number");
        std::size_t used = 0;
        double v = 0.0;
        try {
            v = std::stod(text.substr(start, pos - start), &used);
        } catch (const std::exception &) {
            bail("malformed number");
        }
        if (used != pos - start)
            bail("malformed number");
        return v;
    }

    /** Parse one {..} object of string/number fields via @p field. */
    template <typename FieldFn>
    void
    parseObject(FieldFn &&field)
    {
        expect('{');
        if (peek() == '}') {
            ++pos;
            return;
        }
        while (true) {
            const std::string key = parseString();
            expect(':');
            field(key);
            const char c = peek();
            if (c == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return;
        }
    }
};

std::uint64_t
asCount(double v, Scanner &s)
{
    if (!(v >= 0.0) || v != std::floor(v) || v > 1e18)
        s.bail("expected a non-negative integer");
    return static_cast<std::uint64_t>(v);
}

/** A job's cores: 0 (serving default) up to what dcl1serve accepts. */
std::uint32_t
asCores(double v, Scanner &s)
{
    const std::uint64_t n = asCount(v, s);
    if (n > 4096)
        s.bail("cores must be at most 4096");
    return static_cast<std::uint32_t>(n);
}

void
validateEntry(const MixEntry &e, const std::string &what)
{
    // appByName fatal()s on unknown names: every mix entry must point
    // at a real catalog application.
    workload::appByName(e.app);
    if (!(e.weight > 0.0))
        fatal("%s: app '%s' has non-positive weight", what.c_str(),
              e.app.c_str());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // anonymous namespace

JobMix
mixFromAppList(const std::string &csv)
{
    JobMix mix;
    std::size_t start = 0;
    while (start <= csv.size()) {
        std::size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        const std::string name = csv.substr(start, comma - start);
        if (!name.empty()) {
            MixEntry e;
            e.app = name;
            validateEntry(e, "app list");
            mix.entries.push_back(std::move(e));
        }
        start = comma + 1;
    }
    if (mix.entries.empty())
        fatal("empty application list");
    return mix;
}

JobMix
parseMixJson(const std::string &text, const std::string &what)
{
    JobMix mix;
    Scanner s{text, what};
    s.expect('[');
    if (s.peek() != ']') {
        while (true) {
            MixEntry e;
            s.parseObject([&](const std::string &key) {
                if (key == "app")
                    e.app = s.parseString();
                else if (key == "weight")
                    e.weight = s.parseNumber();
                else if (key == "cores")
                    e.cores = asCores(s.parseNumber(), s);
                else if (key == "budget")
                    e.budget = asCount(s.parseNumber(), s);
                else
                    s.bail("unknown mix entry key");
            });
            if (e.app.empty())
                s.bail("mix entry missing \"app\"");
            validateEntry(e, what);
            mix.entries.push_back(std::move(e));
            if (s.peek() == ',') {
                ++s.pos;
                continue;
            }
            break;
        }
    }
    s.expect(']');
    if (!s.atEnd())
        s.bail("trailing content after the mix array");
    if (mix.entries.empty())
        fatal("%s: mix has no entries", what.c_str());
    return mix;
}

JobMix
loadMixFile(const std::string &path)
{
    return parseMixJson(readFile(path), path);
}

std::vector<TraceJob>
parseJobTrace(const std::string &text, const std::string &what)
{
    std::vector<TraceJob> jobs;
    Scanner s{text, what};
    while (!s.atEnd()) {
        TraceJob j;
        bool haveCycle = false;
        s.parseObject([&](const std::string &key) {
            if (key == "cycle") {
                j.arrival = asCount(s.parseNumber(), s);
                haveCycle = true;
            } else if (key == "app") {
                j.app = s.parseString();
            } else if (key == "cores") {
                j.cores = asCores(s.parseNumber(), s);
            } else if (key == "budget") {
                j.budget = asCount(s.parseNumber(), s);
            } else {
                s.bail("unknown trace job key");
            }
        });
        if (!haveCycle || j.app.empty())
            s.bail("trace job needs \"cycle\" and \"app\"");
        workload::appByName(j.app);
        if (!jobs.empty() && j.arrival < jobs.back().arrival)
            s.bail("trace arrival cycles must be non-decreasing");
        jobs.push_back(std::move(j));
    }
    if (jobs.empty())
        fatal("%s: trace has no jobs", what.c_str());
    return jobs;
}

std::vector<TraceJob>
loadJobTrace(const std::string &path)
{
    return parseJobTrace(readFile(path), path);
}

MixSampler::MixSampler(const JobMix &mix)
{
    double total = 0.0;
    for (const auto &e : mix.entries) {
        total += e.weight;
        cumulative_.push_back(total);
    }
    if (cumulative_.empty() || !(total > 0.0))
        fatal("mix sampler needs positive total weight");
}

std::size_t
MixSampler::draw(Rng &rng) const
{
    const double u = rng.uniform() * cumulative_.back();
    for (std::size_t i = 0; i < cumulative_.size(); ++i)
        if (u < cumulative_[i])
            return i;
    return cumulative_.size() - 1;
}

} // namespace dcl1::serve
