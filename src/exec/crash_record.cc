#include "exec/crash_record.hh"

#include <cctype>
#include <limits>

#include "check/request_ledger.hh"
#include "common/env.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "core/gpu_system.hh"
#include "exec/atomic_file.hh"

namespace dcl1::exec
{

std::string
crashSnapshotJson(core::GpuSystem &gpu)
{
    std::string state = csprintf(
        "\"state\":{\"cycle\":%llu",
        static_cast<unsigned long long>(gpu.cycle()));

    // DC-L1 node queue depths (Q1..Q4): the first thing to look at
    // for a deadlock or backpressure bug.
    if (!gpu.nodes().empty()) {
        state += ",\"nodes\":[";
        for (std::size_t i = 0; i < gpu.nodes().size(); ++i) {
            const auto &node = *gpu.nodes()[i];
            state += csprintf(
                "%s{\"q1\":%zu,\"q2\":%zu,\"q3\":%zu,\"q4\":%zu}",
                i == 0 ? "" : ",", node.q1Size(), node.q2Size(),
                node.q3Size(), node.q4Size());
        }
        state += "]";
    }

    state += ",\"dram\":[";
    for (std::size_t i = 0; i < gpu.channels().size(); ++i) {
        const auto &ch = *gpu.channels()[i];
        state += csprintf("%s{\"queued\":%zu,\"in_service\":%zu}",
                          i == 0 ? "" : ",", ch.queueSize(),
                          ch.inServiceSize());
    }
    state += "]}";

    // Request-ledger tail (DCL1_CHECK builds): the last lifecycle
    // events before death, straight from the auditing machinery.
    if (check::checksCompiledIn && check::ledger().enabled()) {
        state += csprintf(",\"ledger\":{\"live\":%zu,\"registered\":"
                          "%llu,\"retired\":%llu,\"recent\":%s}",
                          check::ledger().liveCount(),
                          static_cast<unsigned long long>(
                              check::ledger().registered()),
                          static_cast<unsigned long long>(
                              check::ledger().retired()),
                          check::ledger().recentEventsJson().c_str());
    }
    return state;
}

std::string
jobFileName(std::size_t index, const std::string &label,
            const char *extension)
{
    std::string safe;
    for (const char c : label)
        safe += (std::isalnum(static_cast<unsigned char>(c)) ||
                 c == '-' || c == '+' || c == '.')
                    ? c
                    : '_';
    return csprintf("job%03zu-%s%s", index, safe.c_str(), extension);
}

std::string
crashRecordName(std::size_t index, const std::string &label)
{
    return jobFileName(index, label, ".json");
}

void
writeCrashRecord(const std::string &dir, const JobResult &result,
                 const std::string &context)
{
    try {
        ensureDirectory(dir);
        AtomicFileWriter out(dir + "/" +
                             crashRecordName(result.index, result.label));
        // "attempts":1 as in the WAL (see JobRecord::toJsonLine).
        out.stream() << "{"
                     << csprintf(
                            "\"job\":%zu,\"label\":\"%s\",\"kind\":"
                            "\"%s\",\"attempts\":1,\"quarantined\":%s,"
                            "\"error\":\"%s\"",
                            result.index,
                            json::escape(result.label).c_str(),
                            outcomeName(result.outcome),
                            result.quarantined() ? "true" : "false",
                            json::escape(result.error).c_str());
        if (!context.empty())
            out.stream() << "," << context;
        out.stream() << "}\n";
        out.commit();
    } catch (const std::exception &e) {
        // Forensics best-effort: never let a crash-record failure mask
        // (or upgrade) the original job failure.
        warn("crash record for job %zu not written: %s", result.index,
             e.what());
    }
}

std::string
crashConfigJson(const std::string &design, const std::string &app,
                const std::string &trace, const core::SystemConfig &sys,
                Cycle measure, Cycle warmup)
{
    return csprintf(
        "\"design\":\"%s\",\"%s\":\"%s\",\"cores\":%u,\"slices\":%u,"
        "\"channels\":%u,\"seed\":%llu,\"measure\":%llu,\"warmup\":%llu",
        json::escape(design).c_str(), trace.empty() ? "app" : "trace",
        json::escape(trace.empty() ? app : trace).c_str(), sys.numCores,
        sys.numL2Slices, sys.numChannels,
        static_cast<unsigned long long>(sys.seed),
        static_cast<unsigned long long>(measure),
        static_cast<unsigned long long>(warmup));
}

CrashConfig
loadCrashRecord(const std::string &path)
{
    const std::optional<std::string> text = readFileText(path);
    if (!text)
        fatal("cannot open crash record '%s'", path.c_str());
    json::Value record;
    std::string error;
    if (!json::parse(*text, record, error))
        fatal("crash record '%s': %s", path.c_str(), error.c_str());

    // Only top-level members count; the machine-state snapshot nested
    // under "state" and "ledger" is for humans.
    CrashConfig cfg;
    if (!record.get("design", cfg.design) ||
        !record.getOptional("app", cfg.app) ||
        !record.getOptional("trace", cfg.trace) ||
        !record.getOptional("label", cfg.label) ||
        !record.getOptional("error", cfg.error) ||
        (cfg.app.empty() && cfg.trace.empty()))
        fatal("crash record '%s' carries no replayable config: string "
              "\"design\" and \"app\" or \"trace\" (jobs must cooperate "
              "via JobContext::setCrashContext)",
              path.c_str());
    // Strict, with the ranges of the dcl1run flags they replay.
    constexpr std::int64_t max = std::numeric_limits<std::int64_t>::max();
    auto num = [&](const char *field, std::uint64_t fallback,
                   std::int64_t min_value, std::int64_t max_value) {
        const json::Value *v = record.find(field);
        if (!v)
            return fallback;
        const std::string name =
            csprintf("crash record '%s' field \"%s\"", path.c_str(), field);
        if (v->kind != json::Value::Kind::Number)
            fatal("%s: expected a number", name.c_str());
        return static_cast<std::uint64_t>(parseEnvInt(
            name.c_str(), v->text.c_str(), min_value, max_value));
    };
    constexpr std::int64_t units = core::kMaxPlatformUnits;
    cfg.cores = static_cast<std::uint32_t>(num("cores", cfg.cores, 1, units));
    cfg.slices =
        static_cast<std::uint32_t>(num("slices", cfg.slices, 1, units));
    cfg.channels =
        static_cast<std::uint32_t>(num("channels", cfg.channels, 1, units));
    cfg.seed = num("seed", cfg.seed, 0, max);
    cfg.measure = num("measure", cfg.measure, 1, max);
    cfg.warmup = num("warmup", cfg.warmup, 0, max);
    return cfg;
}

} // namespace dcl1::exec
