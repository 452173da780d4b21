#include "exec/run_manifest.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "check/check.hh"
#include "common/log.hh"
#include "exec/determinism.hh"
#include "exec/exit_codes.hh"
#include "exec/result_sink.hh"

namespace dcl1::exec
{

namespace
{

/** Bump when the WAL record layout changes incompatibly. */
constexpr int kWalSchema = 1;

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path);
    std::string text;
    for (std::string line; std::getline(in, line);) {
        text += line;
        text += '\n';
    }
    return text;
}

} // anonymous namespace

std::string
jsonUnescape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 >= s.size()) {
            out += s[i];
            continue;
        }
        const char next = s[++i];
        switch (next) {
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u':
            if (i + 4 < s.size()) {
                out += static_cast<char>(
                    std::strtoul(s.substr(i + 1, 4).c_str(), nullptr,
                                 16));
                i += 4;
            }
            break;
          default:
            out += next; // \" and \\ (and anything unknown, verbatim)
        }
    }
    return out;
}

bool
jsonFieldString(const std::string &text, const char *field,
                std::string &out)
{
    const std::string needle = csprintf("\"%s\":\"", field);
    const std::size_t start = text.find(needle);
    if (start == std::string::npos)
        return false;
    std::size_t i = start + needle.size();
    std::string raw;
    while (i < text.size() && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < text.size()) {
            raw += text[i];
            ++i;
        }
        raw += text[i];
        ++i;
    }
    if (i >= text.size())
        return false; // unterminated string: malformed record
    out = jsonUnescape(raw);
    return true;
}

std::string
jsonFieldRaw(const std::string &text, const char *field)
{
    const std::string needle = csprintf("\"%s\":", field);
    const std::size_t start = text.find(needle);
    if (start == std::string::npos)
        return "";
    std::size_t i = start + needle.size();
    if (i < text.size() && text[i] == '{') {
        // Flat nested object (our metrics): no inner braces/strings
        // containing braces, so scan to the matching close.
        const std::size_t close = text.find('}', i);
        if (close == std::string::npos)
            return "";
        return text.substr(i, close - i + 1);
    }
    std::string out;
    while (i < text.size() && text[i] != ',' && text[i] != '}' &&
           text[i] != '\n')
        out += text[i++];
    return out;
}

std::string
runMetricsJson(const core::RunMetrics &rm)
{
    // %.17g round-trips IEEE doubles exactly: resumed metrics are
    // bit-identical to freshly simulated ones, which is what keeps a
    // resumed CSV byte-identical to an uninterrupted run's.
    return csprintf(
        "{\"cycles\":%llu,\"instructions\":%llu,\"ipc\":%.17g,"
        "\"l1_accesses\":%llu,\"l1_misses\":%llu,\"l1_miss_rate\":%.17g,"
        "\"repl_ratio\":%.17g,\"avg_replicas\":%.17g,"
        "\"max_l1_port_util\":%.17g,\"max_core_reply_util\":%.17g,"
        "\"max_mem_reply_util\":%.17g,\"avg_read_latency\":%.17g,"
        "\"noc1_flits\":%llu,\"noc2_flits\":%llu,\"l2_accesses\":%llu,"
        "\"l2_misses\":%llu,\"dram_reads\":%llu,\"dram_writes\":%llu}",
        static_cast<unsigned long long>(rm.cycles),
        static_cast<unsigned long long>(rm.instructions), rm.ipc,
        static_cast<unsigned long long>(rm.l1Accesses),
        static_cast<unsigned long long>(rm.l1Misses), rm.l1MissRate,
        rm.replicationRatio, rm.avgReplicas, rm.maxL1PortUtil,
        rm.maxCoreReplyLinkUtil, rm.maxMemReplyLinkUtil,
        rm.avgReadLatency,
        static_cast<unsigned long long>(rm.noc1Flits),
        static_cast<unsigned long long>(rm.noc2Flits),
        static_cast<unsigned long long>(rm.l2Accesses),
        static_cast<unsigned long long>(rm.l2Misses),
        static_cast<unsigned long long>(rm.dramReads),
        static_cast<unsigned long long>(rm.dramWrites));
}

bool
parseRunMetricsJson(const std::string &json, core::RunMetrics &rm)
{
    auto u64 = [&](const char *field, std::uint64_t &out) {
        const std::string raw = jsonFieldRaw(json, field);
        if (raw.empty())
            return false;
        out = std::strtoull(raw.c_str(), nullptr, 10);
        return true;
    };
    auto f64 = [&](const char *field, double &out) {
        const std::string raw = jsonFieldRaw(json, field);
        if (raw.empty())
            return false;
        out = std::strtod(raw.c_str(), nullptr);
        return true;
    };
    return u64("cycles", rm.cycles) &&
           u64("instructions", rm.instructions) && f64("ipc", rm.ipc) &&
           u64("l1_accesses", rm.l1Accesses) &&
           u64("l1_misses", rm.l1Misses) &&
           f64("l1_miss_rate", rm.l1MissRate) &&
           f64("repl_ratio", rm.replicationRatio) &&
           f64("avg_replicas", rm.avgReplicas) &&
           f64("max_l1_port_util", rm.maxL1PortUtil) &&
           f64("max_core_reply_util", rm.maxCoreReplyLinkUtil) &&
           f64("max_mem_reply_util", rm.maxMemReplyLinkUtil) &&
           f64("avg_read_latency", rm.avgReadLatency) &&
           u64("noc1_flits", rm.noc1Flits) &&
           u64("noc2_flits", rm.noc2Flits) &&
           u64("l2_accesses", rm.l2Accesses) &&
           u64("l2_misses", rm.l2Misses) &&
           u64("dram_reads", rm.dramReads) &&
           u64("dram_writes", rm.dramWrites);
}

std::string
buildSignature()
{
    return csprintf("wal-schema=%d check=%d", kWalSchema,
                    check::checksCompiledIn ? 1 : 0);
}

std::string
JobRecord::toJsonLine() const
{
    return csprintf(
        "{\"key\":\"%s\",\"label\":\"%s\",\"ok\":%s,"
        "\"quarantined\":%s,\"attempts\":%u,\"kind\":\"%s\","
        "\"metrics\":%s,\"error\":\"%s\",\"timeline\":\"%s\"}",
        jsonEscape(key).c_str(), jsonEscape(label).c_str(),
        ok ? "true" : "false", quarantined ? "true" : "false", attempts,
        failureKindName(kind), runMetricsJson(metrics).c_str(),
        jsonEscape(error).c_str(), jsonEscape(timeline).c_str());
}

bool
JobRecord::fromJsonLine(const std::string &line, JobRecord &out)
{
    if (!jsonFieldString(line, "key", out.key) ||
        !jsonFieldString(line, "label", out.label))
        return false;
    const std::string ok = jsonFieldRaw(line, "ok");
    const std::string quarantined = jsonFieldRaw(line, "quarantined");
    const std::string attempts = jsonFieldRaw(line, "attempts");
    if (ok.empty() || quarantined.empty() || attempts.empty())
        return false;
    out.ok = ok == "true";
    out.quarantined = quarantined == "true";
    out.attempts = static_cast<unsigned>(
        std::strtoul(attempts.c_str(), nullptr, 10));
    std::string kind;
    if (jsonFieldString(line, "kind", kind)) {
        for (const auto k :
             {FailureKind::None, FailureKind::Timeout,
              FailureKind::SimBug, FailureKind::ConfigError,
              FailureKind::WorkerException})
            if (kind == failureKindName(k))
                out.kind = k;
    }
    jsonFieldString(line, "error", out.error);
    // Absent in schema-compatible records from before the telemetry
    // layer; those jobs simply have no timeline to point at.
    jsonFieldString(line, "timeline", out.timeline);
    const std::string metrics = jsonFieldRaw(line, "metrics");
    if (out.ok &&
        (metrics.empty() || !parseRunMetricsJson(metrics, out.metrics)))
        return false;
    return true;
}

RunManifest::RunManifest(std::string dir, std::string config)
    : dir_(std::move(dir)), config_(std::move(config)),
      wal_(dir_ + "/jobs.jsonl")
{
}

std::unique_ptr<RunManifest>
RunManifest::openOrCreate(const std::string &dir,
                          const std::string &config)
{
    if (dir.empty())
        fatal("durable run: empty run-directory path");
    ensureDirectory(dir);
    auto m = std::make_unique<RunManifest>(dir, config);

    const std::string manifest_path = dir + "/manifest.json";
    const std::string existing = readWholeFile(manifest_path);
    if (existing.empty()) {
        MutexLock lock(m->mutex_);
        m->writeManifestFile("running");
        return m;
    }

    // Incompatibility gets its own pinned exit code (6, distinct from
    // the generic config-error 1): a fleet launcher seeing it knows
    // *every* worker it would spawn against this directory is doomed,
    // where exit 1 just means one worker got a flag wrong.
    std::string stored_config, stored_signature;
    if (!jsonFieldString(existing, "config", stored_config) ||
        !jsonFieldString(existing, "signature", stored_signature)) {
        std::fprintf(stderr,
                     "run directory '%s': unreadable manifest.json — "
                     "not a dcl1 run directory? Use a fresh "
                     "directory.\n",
                     dir.c_str());
        std::exit(kExitIncompatibleRunDir);
    }
    if (stored_signature != buildSignature()) {
        std::fprintf(stderr,
                     "run directory '%s' was produced by an "
                     "incompatible build (%s vs %s); completed records "
                     "cannot be trusted. Use a fresh directory.\n",
                     dir.c_str(), stored_signature.c_str(),
                     buildSignature().c_str());
        std::exit(kExitIncompatibleRunDir);
    }
    if (stored_config != config)
        fatal("run directory '%s' belongs to a different batch:\n"
              "  stored:  %s\n  current: %s\n"
              "Resuming it would mix incompatible results; rerun with "
              "the original options or use a fresh directory.",
              dir.c_str(), stored_config.c_str(), config.c_str());

    {
        MutexLock lock(m->mutex_);
        m->loadRecords();
        m->writeManifestFile("running");
    }
    return m;
}

void
RunManifest::loadRecords()
{
    std::ifstream in(dir_ + "/jobs.jsonl");
    std::size_t malformed = 0;
    for (std::string line; std::getline(in, line);) {
        if (line.empty())
            continue;
        JobRecord rec;
        if (!JobRecord::fromJsonLine(line, rec)) {
            // A torn final line from a hard kill is expected once; the
            // job it described simply re-runs.
            ++malformed;
            continue;
        }
        records_[rec.key] = rec;
    }
    if (malformed > 0)
        warn("run directory '%s': %zu unparsable WAL line(s) ignored "
             "(likely a torn tail from a hard kill)",
             dir_.c_str(), malformed);
}

const JobRecord *
RunManifest::find(const std::string &key) const
{
    MutexLock lock(mutex_);
    const auto it = records_.find(key);
    return it == records_.end() ? nullptr : &it->second;
}

void
RunManifest::append(const JobRecord &record)
{
    if (record.key.empty())
        return;
    MutexLock lock(mutex_);
    wal_.appendLine(record.toJsonLine());
    records_[record.key] = record;
}

std::string
RunManifest::claimFileName(const std::string &key)
{
    // Keys carry '|', '/', '+'-style separators; the name keeps a
    // readable sanitized prefix and disambiguates with FNV-1a, which
    // is stable across processes and hosts.
    std::string safe;
    for (const char c : key) {
        if (safe.size() >= 40)
            break;
        safe += (std::isalnum(static_cast<unsigned char>(c)) ||
                 c == '-' || c == '.')
                    ? c
                    : '_';
    }
    return csprintf("%s-%016llx", safe.c_str(),
                    static_cast<unsigned long long>(fnv1a(key)));
}

bool
RunManifest::claim(const std::string &key) const
{
    const std::string dir = dir_ + "/claims";
    ensureDirectory(dir);
    const int fd = ::open((dir + "/" + claimFileName(key)).c_str(),
                          O_WRONLY | O_CREAT | O_EXCL, 0666);
    if (fd < 0)
        return false;
    ::close(fd);
    return true;
}

void
RunManifest::finalize(const std::string &status)
{
    MutexLock lock(mutex_);
    writeManifestFile(status);
}

void
RunManifest::writeManifestFile(const std::string &status)
{
    AtomicFileWriter out(dir_ + "/manifest.json");
    out.stream() << csprintf(
        "{\"signature\":\"%s\",\"config\":\"%s\",\"status\":\"%s\","
        "\"completed\":%zu}\n",
        jsonEscape(buildSignature()).c_str(),
        jsonEscape(config_).c_str(), jsonEscape(status).c_str(),
        records_.size());
    out.commit();
}

} // namespace dcl1::exec
