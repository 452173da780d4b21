#include "bench/bench_common.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>

#include "check/check.hh"
#include "common/env.hh"
#include "common/flags.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "exec/atomic_file.hh"
#include "exec/job_runner.hh"
#include "exec/job_set.hh"
#include "exec/result_sink.hh"
#include "exec/run_manifest.hh"

namespace dcl1::bench
{

Harness::Harness(const std::string &title, const std::string &what)
    : opts_(core::ExperimentOptions::fromEnv())
{
    std::printf("==== %s ====\n", title.c_str());
    std::printf("%s\n", what.c_str());
    std::printf("platform: %s\n", sys_.summary().c_str());
    std::printf("cycles: %llu measured after %llu warmup\n\n",
                static_cast<unsigned long long>(opts_.measureCycles),
                static_cast<unsigned long long>(opts_.warmupCycles));
}

std::string
Harness::resultKey(const core::DesignConfig &design,
                   const std::string &app) const
{
    return csprintf("%s|%s|%llu|%llu|%llu", design.name.c_str(),
                    app.c_str(),
                    static_cast<unsigned long long>(opts_.measureCycles),
                    static_cast<unsigned long long>(opts_.warmupCycles),
                    static_cast<unsigned long long>(sys_.seed));
}

void
Harness::prefetch(const std::vector<core::DesignConfig> &designs,
                  const std::vector<workload::AppInfo> &apps,
                  bool with_baseline)
{
    exec::JobSet set;
    // DCL1_TIMELINE=<dir>: emit a per-cell cycle-interval timeline for
    // every prefetched cell. Observability only — metrics and printed
    // tables are byte-identical with or without it.
    if (const std::string dir = envStrOr("DCL1_TIMELINE", "");
        !dir.empty())
        set.setTimelineDir(dir);
    // Job index -> result key; memoization may map several
    // (design, app) pairs onto one job.
    std::vector<std::pair<std::size_t, std::string>> wanted;
    auto request = [&](const core::DesignConfig &design,
                       const workload::AppInfo &app) {
        const std::string key = resultKey(design, app.params.name);
        if (results_.count(key))
            return;
        wanted.emplace_back(
            set.addCell(sys_, design, app.params, opts_), key);
    };
    for (const auto &app : apps) {
        if (with_baseline)
            request(core::baselineDesign(), app);
        for (const auto &design : designs)
            request(design, app);
    }
    if (set.size() == 0)
        return;

    const std::vector<exec::JobResult> results = runJobSet(set);

    for (const auto &[index, key] : wanted) {
        const exec::JobResult &r = results[index];
        if (!r.ok())
            fatal("%s failed (%s): %s", r.label.c_str(),
                  exec::outcomeName(r.outcome), r.error.c_str());
        results_.emplace(key, r.metrics);
    }
}

std::vector<exec::JobResult>
runJobSet(const exec::JobSet &set)
{
    exec::JobRunner runner(exec::ExecOptions::fromEnv());
    // DCL1_RUN_DIR makes bench batches durable: completed cells are
    // skipped on a re-run. One directory serves *all* benches — the
    // manifest identity is just the build signature; individual cells
    // are told apart by their durable (design, app, opts, platform,
    // seed) keys.
    std::unique_ptr<exec::RunManifest> manifest;
    if (const std::string dir = envStrOr("DCL1_RUN_DIR", "");
        !dir.empty()) {
        manifest = exec::RunManifest::openOrCreate(dir, "bench");
        runner.attachManifest(manifest.get());
    }
    exec::ProgressSink progress;
    runner.addSink(&progress);
    return runner.run(set.specs());
}

const core::RunMetrics &
Harness::run(const core::DesignConfig &design,
             const workload::AppInfo &app)
{
    const std::string key = resultKey(design, app.params.name);
    if (!results_.count(key))
        prefetch({design}, {app}, /*with_baseline=*/false);
    return results_.at(key);
}

double
Harness::speedup(const core::DesignConfig &design,
                 const workload::AppInfo &app)
{
    const double base = baseline(app).ipc;
    return base > 0.0 ? run(design, app).ipc / base : 0.0;
}

std::vector<workload::AppInfo>
Harness::apps(bool sensitive_only, bool insensitive_only)
{
    std::vector<workload::AppInfo> out;
    std::vector<std::string> filter;
    if (const std::string f = envStrOr("DCL1_APPS", ""); !f.empty())
        filter = parseList("DCL1_APPS", f);

    for (const auto &app : workload::appCatalog()) {
        if (sensitive_only && !app.replicationSensitive)
            continue;
        if (insensitive_only && app.replicationSensitive)
            continue;
        if (!filter.empty()) {
            bool keep = false;
            for (const auto &name : filter)
                keep = keep || name == app.params.name;
            if (!keep)
                continue;
        }
        out.push_back(app);
    }
    return out;
}

std::string
benchOutputPath(const std::string &filename)
{
    const std::string dir = envStrOr("DCL1_BENCH_DIR", "");
    if (dir.empty())
        return filename;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("DCL1_BENCH_DIR '%s': cannot create directory (%s)",
              dir.c_str(), ec.message().c_str());
    return dir + "/" + filename;
}

std::string
machineFingerprintJson()
{
    std::string model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::size_t start = colon + 1;
                while (start < line.size() && line[start] == ' ')
                    ++start;
                model = line.substr(start);
            }
            break;
        }
    }
    return csprintf(
        "{\"cpu\":\"%s\",\"cores\":%u,\"compiler\":\"%s\","
        "\"checks\":%s}",
        json::escape(model).c_str(),
        exec::ExecOptions::hardwareConcurrency(),
        json::escape(__VERSION__).c_str(),
        DCL1_CHECK_ENABLED ? "true" : "false");
}

void
header(const std::string &title)
{
    std::printf("\n-- %s --\n", title.c_str());
}

void
row(const std::string &label, const std::vector<double> &values,
    const char *fmt)
{
    std::printf("%-14s", label.c_str());
    for (double v : values)
        std::printf(fmt, v);
    std::printf("\n");
}

void
columns(const std::string &label, const std::vector<std::string> &names)
{
    std::printf("%-14s", label.c_str());
    for (const auto &n : names)
        std::printf("%8s", n.c_str());
    std::printf("\n");
}

} // namespace dcl1::bench
