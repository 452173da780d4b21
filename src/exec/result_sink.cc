#include "exec/result_sink.hh"

#include "common/json.hh"
#include "common/log.hh"

namespace dcl1::exec
{

void
SinkFanout::add(ResultSink *sink)
{
    if (!sink)
        return;
    MutexLock lock(mutex_);
    sinks_.push_back(sink);
}

void
SinkFanout::runStart(std::size_t num_jobs, unsigned workers)
{
    MutexLock lock(mutex_);
    for (ResultSink *sink : sinks_)
        sink->onRunStart(num_jobs, workers);
}

void
SinkFanout::jobStart(std::size_t index, const std::string &label,
                     unsigned worker)
{
    MutexLock lock(mutex_);
    for (ResultSink *sink : sinks_)
        sink->onJobStart(index, label, worker);
}

void
SinkFanout::jobDone(const JobResult &result)
{
    MutexLock lock(mutex_);
    for (ResultSink *sink : sinks_)
        sink->onJobDone(result);
}

void
SinkFanout::runEnd(const RunSummary &summary,
                   const std::vector<JobResult> &results)
{
    MutexLock lock(mutex_);
    for (ResultSink *sink : sinks_)
        sink->onRunEnd(summary, results);
}

void
ProgressSink::onRunStart(std::size_t num_jobs, unsigned workers)
{
    total_ = num_jobs;
    done_ = 0;
    std::fprintf(stderr, "[exec] %zu job(s) on %u worker(s)\n", num_jobs,
                 workers);
}

void
ProgressSink::onJobDone(const JobResult &result)
{
    ++done_;
    if (result.outcome == Outcome::Deferred) {
        std::fprintf(stderr,
                     "[exec] %4zu/%zu dfer %-28s (claimed elsewhere)\n",
                     done_, total_, result.label.c_str());
    } else if (result.resumed) {
        std::fprintf(stderr, "[exec] %4zu/%zu skip %-28s (resumed%s)\n",
                     done_, total_, result.label.c_str(),
                     result.ok() ? "" : ", quarantined");
    } else if (result.ok()) {
        std::fprintf(stderr, "[exec] %4zu/%zu ok   %-28s %9.1f ms (w%u)\n",
                     done_, total_, result.label.c_str(), result.wallMs,
                     result.worker);
    } else {
        std::fprintf(stderr, "[exec] %4zu/%zu %s %-28s %9.1f ms (w%u): %s\n",
                     done_, total_,
                     result.quarantined() ? "QUAR" : "FAIL",
                     result.label.c_str(), result.wallMs, result.worker,
                     result.error.c_str());
    }
}

void
ProgressSink::onRunEnd(const RunSummary &summary,
                       const std::vector<JobResult> &results)
{
    std::fprintf(stderr,
                 "[exec] done: %zu job(s), %zu failed (%zu quarantined), "
                 "%zu resumed, %.1f ms wall, "
                 "%.1f ms cpu, %.0f%% pool utilization (%u worker(s))\n",
                 summary.totalJobs, summary.failedJobs,
                 summary.quarantinedJobs, summary.resumedJobs,
                 summary.wallMs, summary.cpuMs,
                 100.0 * summary.utilization, summary.workers);
    if (summary.interrupted)
        std::fprintf(stderr,
                     "[exec] INTERRUPTED: %zu job(s) never started; "
                     "in-flight jobs were drained\n",
                     summary.skippedJobs);
    if (summary.deferredJobs > 0)
        std::fprintf(stderr,
                     "[exec] fleet: %zu cell(s) deferred to other "
                     "workers\n",
                     summary.deferredJobs);
    if (!summary.slowest.empty()) {
        std::fprintf(stderr, "[exec] slowest:\n");
        for (const std::size_t idx : summary.slowest)
            std::fprintf(stderr, "[exec]   %9.1f ms  %s\n",
                         results[idx].wallMs, results[idx].label.c_str());
    }
    // Surface where each job's timeline landed (including jobs that
    // failed or were resumed), so partial timelines are findable
    // without grepping jobs.jsonl.
    std::size_t timelines = 0;
    for (const JobResult &r : results)
        if (!r.timeline.empty())
            ++timelines;
    if (timelines > 0) {
        std::fprintf(stderr, "[exec] timelines (%zu):\n", timelines);
        for (const JobResult &r : results)
            if (!r.timeline.empty())
                std::fprintf(stderr, "[exec]   %-28s %s%s\n",
                             r.label.c_str(), r.timeline.c_str(),
                             r.ok() ? "" : " [partial]");
    }
    // Aggregate host-phase attribution over the profiled jobs: the
    // at-a-glance answer to "where did this sweep's wall time go?"
    // (per-job trees live in jobs.jsonl).
    std::uint64_t self_ns[prof::kPhaseCount] = {};
    std::uint64_t wall_ns = 0;
    std::size_t profiled = 0;
    for (const JobResult &r : results) {
        if (!r.prof.enabled)
            continue;
        ++profiled;
        wall_ns += r.prof.wallNs;
        for (const prof::ReportNode &n : r.prof.nodes)
            self_ns[static_cast<std::size_t>(n.phase)] += n.selfNs;
    }
    if (profiled > 0 && wall_ns > 0) {
        std::fprintf(stderr,
                     "[exec] host phases (%zu profiled job(s), "
                     "%% of %.1f ms job wall time):\n",
                     profiled, static_cast<double>(wall_ns) / 1e6);
        for (std::size_t i = 0; i < prof::kPhaseCount; ++i)
            if (self_ns[i] > 0)
                std::fprintf(
                    stderr, "[exec]   %-10s %6.1f%%\n",
                    prof::phaseName(static_cast<prof::Phase>(i)),
                    100.0 * static_cast<double>(self_ns[i]) /
                        static_cast<double>(wall_ns));
    }
}

JsonlSink::JsonlSink(std::string path) : log_(std::move(path))
{
}

void
JsonlSink::onJobDone(const JobResult &result)
{
    if (result.outcome == Outcome::Deferred)
        return;
    const core::RunMetrics &m = result.metrics;
    // Host phase profile rides along as one nested object so fleet
    // tooling can attribute wall time per cell without new files.
    const std::string prof_field =
        result.prof.enabled ? "\"prof\":" + result.prof.json() + ","
                            : std::string();
    // "attempts":1 as in the WAL (see JobRecord::toJsonLine).
    log_.appendLine(csprintf(
        "{\"job\":%zu,\"label\":\"%s\",\"ok\":%s,\"resumed\":%s,"
        "\"quarantined\":%s,\"kind\":\"%s\",\"attempts\":1,"
        "\"worker\":%u,%s"
        "\"wall_ms\":%.3f,\"cycles\":%llu,\"instructions\":%llu,"
        "\"ipc\":%.6f,\"error\":\"%s\",\"timeline\":\"%s\"}",
        result.index, json::escape(result.label).c_str(),
        result.ok() ? "true" : "false", result.resumed ? "true" : "false",
        result.quarantined() ? "true" : "false",
        outcomeName(result.outcome), result.worker, prof_field.c_str(),
        result.wallMs, static_cast<unsigned long long>(m.cycles),
        static_cast<unsigned long long>(m.instructions), m.ipc,
        json::escape(result.error).c_str(),
        json::escape(result.timeline).c_str()));
}

void
JsonlSink::onRunEnd(const RunSummary &summary,
                    const std::vector<JobResult> &results)
{
    (void)results;
    log_.appendLine(csprintf(
        "{\"summary\":true,\"jobs\":%zu,\"failed\":%zu,"
        "\"quarantined\":%zu,\"resumed\":%zu,\"skipped\":%zu,"
        "\"deferred\":%zu,\"interrupted\":%s,"
        "\"workers\":%u,\"wall_ms\":%.3f,\"cpu_ms\":%.3f,"
        "\"utilization\":%.4f}",
        summary.totalJobs, summary.failedJobs, summary.quarantinedJobs,
        summary.resumedJobs, summary.skippedJobs, summary.deferredJobs,
        summary.interrupted ? "true" : "false", summary.workers,
        summary.wallMs, summary.cpuMs, summary.utilization));
}

} // namespace dcl1::exec
