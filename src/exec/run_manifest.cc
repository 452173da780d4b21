#include "exec/run_manifest.hh"

#include <cctype>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "check/check.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "exec/determinism.hh"
#include "exec/exit_codes.hh"

namespace dcl1::exec
{

namespace
{

/** Bump when the WAL record layout changes incompatibly. */
constexpr int kWalSchema = 1;

bool
readRunMetrics(const json::Value &m, core::RunMetrics &rm)
{
    return m.get("cycles", rm.cycles) &&
           m.get("instructions", rm.instructions) && m.get("ipc", rm.ipc) &&
           m.get("l1_accesses", rm.l1Accesses) &&
           m.get("l1_misses", rm.l1Misses) &&
           m.get("l1_miss_rate", rm.l1MissRate) &&
           m.get("repl_ratio", rm.replicationRatio) &&
           m.get("avg_replicas", rm.avgReplicas) &&
           m.get("max_l1_port_util", rm.maxL1PortUtil) &&
           m.get("max_core_reply_util", rm.maxCoreReplyLinkUtil) &&
           m.get("max_mem_reply_util", rm.maxMemReplyLinkUtil) &&
           m.get("avg_read_latency", rm.avgReadLatency) &&
           m.get("noc1_flits", rm.noc1Flits) &&
           m.get("noc2_flits", rm.noc2Flits) &&
           m.get("l2_accesses", rm.l2Accesses) &&
           m.get("l2_misses", rm.l2Misses) &&
           m.get("dram_reads", rm.dramReads) &&
           m.get("dram_writes", rm.dramWrites);
}

} // anonymous namespace

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
parseRunMetricsJson(const std::string &text, core::RunMetrics &rm)
{
    json::Value m;
    std::string error;
    return json::parse(text, m, error) && readRunMetrics(m, rm);
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
    // "ok" and "quarantined" restate the kind for schema-1 readers.
    // Every job runs once, so "attempts" is always 1; those readers
    // require the member, so it stays until the schema drops it.
    return csprintf(
        "{\"key\":\"%s\",\"label\":\"%s\",\"ok\":%s,"
        "\"quarantined\":%s,\"attempts\":1,\"kind\":\"%s\","
        "\"metrics\":%s,\"error\":\"%s\",\"timeline\":\"%s\"}",
        json::escape(key).c_str(), json::escape(label).c_str(),
        ok() ? "true" : "false", quarantined() ? "true" : "false",
        outcomeName(outcome), runMetricsJson(metrics).c_str(),
        json::escape(error).c_str(), json::escape(timeline).c_str());
}

bool
JobRecord::fromJsonLine(const std::string &line, JobRecord &out)
{
    json::Value v;
    std::string error, kind;
    bool ok = false, quarantined = false;
    std::uint64_t attempts = 0;
    // "timeline" is absent in records from before the telemetry layer;
    // those jobs simply have no timeline to point at.
    if (!json::parse(line, v, error) || !v.get("key", out.key) ||
        !v.get("label", out.label) || !v.get("ok", ok) ||
        !v.get("quarantined", quarantined) ||
        !v.get("attempts", attempts) || attempts > UINT_MAX ||
        !v.getOptional("kind", kind) ||
        !v.getOptional("error", out.error) ||
        !v.getOptional("timeline", out.timeline))
        return false;
    out.outcome = Outcome::Ok; // an absent or unknown kind reads "none"
    for (const auto o : {Outcome::SimBug, Outcome::ConfigError,
                         Outcome::WorkerException, Outcome::Skipped,
                         Outcome::Deferred})
        if (kind == outcomeName(o))
            out.outcome = o;
    // The writer derives both flags from the kind and records only
    // terminal outcomes; any other line is not one of its records.
    if (ok != out.ok() || quarantined != out.quarantined() ||
        !(ok || quarantined))
        return false;
    const json::Value *metrics = v.find("metrics");
    return !ok || (metrics && readRunMetrics(*metrics, out.metrics));
}

RunManifest::RunManifest(std::string dir, std::string config)
    : dir_(std::move(dir)), config_(std::move(config)),
      wal_(walPath())
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

    const std::optional<std::string> existing =
        readFileText(dir + "/manifest.json");
    if (!existing || existing->empty()) {
        MutexLock lock(m->mutex_);
        m->writeManifestFile("running");
        return m;
    }

    // Incompatibility gets its own pinned exit code (6, distinct from
    // the generic config-error 1): a fleet launcher seeing it knows
    // *every* worker it would spawn against this directory is doomed,
    // where exit 1 just means one worker got a flag wrong.
    json::Value manifest;
    std::string error, stored_config, stored_signature;
    if (json::parse(*existing, manifest, error) &&
        !(manifest.get("config", stored_config) &&
          manifest.get("signature", stored_signature)))
        error = "no \"config\" and \"signature\" strings";
    if (!error.empty()) {
        std::fprintf(stderr,
                     "run directory '%s': unreadable manifest.json (%s) "
                     "— not a dcl1 run directory? Use a fresh "
                     "directory.\n",
                     dir.c_str(), error.c_str());
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
    std::ifstream in(walPath());
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
    if (record.key.empty() || !(record.ok() || record.quarantined()))
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
        json::escape(buildSignature()).c_str(),
        json::escape(config_).c_str(), json::escape(status).c_str(),
        records_.size());
    out.commit();
}

} // namespace dcl1::exec
