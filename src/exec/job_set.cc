#include "exec/job_set.hh"

#include "check/check.hh"
#include "common/log.hh"
#include "exec/atomic_file.hh"
#include "exec/crash_record.hh"

namespace dcl1::exec
{

core::RunMetrics
runCell(const GridCell &cell, JobContext &ctx)
{
    // Crash-diagnostic cooperation: hand the engine a replayable
    // description of this cell up front, so even a death during
    // construction leaves a usable record.
    const std::string config =
        crashConfigJson(cell.design.name, cell.app.name, "", cell.sys,
                        cell.opts.measureCycles, cell.opts.warmupCycles);
    ctx.setCrashContext(config);

    core::GpuSystem gpu(cell.sys, cell.design, cell.app);

    // Per-cell timeline: rows land line-atomically, so even the
    // timeline of a job killed mid-run parses up to its last sample.
    std::unique_ptr<AppendLog> timeline_log;
    if (!cell.timelinePath.empty()) {
        timeline_log = std::make_unique<AppendLog>(cell.timelinePath);
        const Cycle interval = cell.timelineInterval != 0
                                   ? cell.timelineInterval
                                   : core::timelineIntervalFromEnv();
        AppendLog *log = timeline_log.get();
        gpu.enableTimeline(interval, [log](const std::string &row) {
            log->appendLine(row);
        });
        ctx.setTimelinePath(cell.timelinePath);
    }

    try {
        gpu.run(cell.opts.measureCycles, cell.opts.warmupCycles);
        gpu.finishTelemetry();
        // Full audit at the end of the measured interval, exactly like
        // core::runOnce; run() itself audits on a power-of-two cadence.
        DCL1_CHECK_ONLY(gpu.checkInvariants("exec::runCell"));
    } catch (...) {
        // The machine is still alive here: snapshot cycle, queue
        // depths, and (DCL1_CHECK) recent ledger events into the
        // crash context. Best-effort — never mask the real failure.
        try {
            ctx.setCrashContext(config + "," + crashSnapshotJson(gpu));
        } catch (...) {
        }
        throw;
    }
    return gpu.metrics();
}

std::size_t
JobSet::addCell(const core::SystemConfig &sys,
                const core::DesignConfig &design,
                const workload::WorkloadParams &app,
                const core::ExperimentOptions &opts,
                const std::string &key_suffix)
{
    ++cellsRequested_;
    const std::string key = csprintf(
        "%s|%s|%llu|%llu|%s|%llu|%s", design.name.c_str(),
        app.name.c_str(),
        static_cast<unsigned long long>(opts.measureCycles),
        static_cast<unsigned long long>(opts.warmupCycles),
        sys.summary().c_str(), static_cast<unsigned long long>(sys.seed),
        key_suffix.c_str());
    const auto it = keyToIndex_.find(key);
    if (it != keyToIndex_.end())
        return it->second;

    // Front-door validation: an impossible platform or design is a
    // config error at grid-build time, not a mid-batch worker death.
    sys.validate();
    design.validate(sys);

    GridCell cell{sys, design, app, opts, "", 0};
    JobSpec spec;
    spec.label = design.name + "/" + app.name;
    spec.key = key;
    if (!timelineDir_.empty()) {
        cell.timelinePath =
            timelineDir_ + "/" +
            jobFileName(specs_.size(), spec.label, ".jsonl");
        cell.timelineInterval = timelineInterval_;
    }
    spec.fn = [cell = std::move(cell)](JobContext &ctx) {
        return runCell(cell, ctx);
    };
    specs_.push_back(std::move(spec));
    ++cellsScheduled_;
    const std::size_t index = specs_.size() - 1;
    keyToIndex_.emplace(key, index);
    return index;
}

void
JobSet::setTimelineDir(std::string dir, Cycle interval)
{
    if (!dir.empty())
        ensureDirectory(dir);
    timelineDir_ = std::move(dir);
    timelineInterval_ = interval;
}

} // namespace dcl1::exec
