#include "serve/job_mix.hh"

#include <optional>
#include <sstream>

#include "common/flags.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "core/system_config.hh"
#include "exec/atomic_file.hh"
#include "workload/app_catalog.hh"

namespace dcl1::serve
{

namespace
{

/** Ceiling for arrival cycles and instruction budgets. */
constexpr std::uint64_t kMaxCount = 1'000'000'000'000'000'000ull;

/**
 * Read one mix entry or, when @p cycle is given, one trace job, which
 * carries "cycle" in place of "weight". fatal()s naming @p where on an
 * unknown key, a mistyped or out-of-range value, or an unknown app.
 */
MixEntry
readEntry(const json::Value &obj, const std::string &where,
          std::optional<Cycle> *cycle = nullptr)
{
    if (obj.kind != json::Value::Kind::Object)
        fatal("%s: expected a JSON object", where.c_str());
    auto count = [&](const json::Value &v, const std::string &key,
                     std::uint64_t max) {
        std::uint64_t n = 0;
        if (!v.get(n) || n > max)
            fatal("%s: \"%s\" must be an integer in [0, %llu]",
                  where.c_str(), key.c_str(),
                  static_cast<unsigned long long>(max));
        return n;
    };
    MixEntry entry;
    for (std::size_t i = 0; i < obj.keys.size(); ++i) {
        const std::string &key = obj.keys[i];
        const json::Value &v = obj.items[i];
        if (key == "app") {
            if (!v.get(entry.app))
                fatal("%s: \"app\" must be a string", where.c_str());
        } else if (key == "cores") {
            entry.cores = static_cast<std::uint32_t>(
                count(v, key, core::kMaxPlatformUnits));
        } else if (key == "budget") {
            entry.budget = count(v, key, kMaxCount);
        } else if (key == "weight" && !cycle) {
            if (!v.get(entry.weight) || !(entry.weight > 0.0))
                fatal("%s: \"weight\" must be a positive number",
                      where.c_str());
        } else if (key == "cycle" && cycle) {
            *cycle = count(v, key, kMaxCount);
        } else {
            fatal("%s: unknown key \"%s\"", where.c_str(), key.c_str());
        }
    }
    if (entry.app.empty())
        fatal("%s: missing \"app\"", where.c_str());
    // appByName fatal()s on unknown names: every job must point at a
    // real catalog application.
    workload::appByName(entry.app);
    return entry;
}

json::Value
parseOrDie(const std::string &text, const std::string &where)
{
    json::Value v;
    std::string error;
    if (!json::parse(text, v, error))
        fatal("%s: %s", where.c_str(), error.c_str());
    return v;
}

std::string
readOrDie(const std::string &path)
{
    const std::optional<std::string> text = exec::readFileText(path);
    if (!text)
        fatal("cannot open '%s'", path.c_str());
    return *text;
}

} // anonymous namespace

JobMix
mixFromAppList(const std::string &csv)
{
    JobMix mix;
    for (const std::string &name : parseList("application list", csv)) {
        workload::appByName(name);
        mix.entries.push_back({name});
    }
    return mix;
}

JobMix
parseMixJson(const std::string &text, const std::string &what)
{
    const json::Value v = parseOrDie(text, what);
    if (v.kind != json::Value::Kind::Array)
        fatal("%s: a mix is a JSON array of objects", what.c_str());
    JobMix mix;
    for (std::size_t i = 0; i < v.items.size(); ++i)
        mix.entries.push_back(readEntry(
            v.items[i], csprintf("%s: mix entry %zu", what.c_str(), i)));
    if (mix.entries.empty())
        fatal("%s: mix has no entries", what.c_str());
    return mix;
}

JobMix
loadMixFile(const std::string &path)
{
    return parseMixJson(readOrDie(path), path);
}

std::vector<TraceJob>
parseJobTrace(const std::string &text, const std::string &what)
{
    std::vector<TraceJob> jobs;
    std::istringstream in(text);
    std::size_t line_no = 0;
    for (std::string line; std::getline(in, line);) {
        ++line_no;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        const std::string where = csprintf("%s:%zu", what.c_str(), line_no);
        std::optional<Cycle> cycle;
        const MixEntry job = readEntry(parseOrDie(line, where), where, &cycle);
        if (!cycle)
            fatal("%s: trace job needs \"cycle\"", where.c_str());
        if (!jobs.empty() && *cycle < jobs.back().arrival)
            fatal("%s: trace arrival cycles must be non-decreasing",
                  where.c_str());
        jobs.push_back({*cycle, job.app, job.cores, job.budget});
    }
    if (jobs.empty())
        fatal("%s: trace has no jobs", what.c_str());
    return jobs;
}

std::vector<TraceJob>
loadJobTrace(const std::string &path)
{
    return parseJobTrace(readOrDie(path), path);
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
