/**
 * @file
 * Declarative job sets over (platform, design, workload, options)
 * grids, with shared-cell memoization.
 *
 * addCell() dedupes: adding the same cell twice returns the first
 * job's index instead of scheduling a second simulation. This is what
 * lets a sweep list Baseline both as a speedup denominator and as an
 * output row while simulating it exactly once per app.
 *
 * Cells are keyed by (design name, app name, cycle budgets, platform
 * summary, seed). Callers that hand-mutate a DesignConfig or
 * WorkloadParams beyond what its name reflects must pass a
 * distinguishing @p key_suffix.
 */

#ifndef DCL1_EXEC_JOB_SET_HH
#define DCL1_EXEC_JOB_SET_HH

#include <map>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "exec/job.hh"

namespace dcl1::exec
{

/** One grid point: everything needed to run a simulation. */
struct GridCell
{
    core::SystemConfig sys;
    core::DesignConfig design;
    workload::WorkloadParams app;
    core::ExperimentOptions opts;

    /// @name Per-cell telemetry (set by JobSet::setTimelineDir)
    /// @{
    std::string timelinePath;   ///< timeline JSONL ("" = no timeline)
    Cycle timelineInterval = 0; ///< 0 = timelineIntervalFromEnv()
    /// @}
};

/**
 * Run one grid cell: semantically core::runOnce, plus the crash
 * context and the optional per-cell timeline.
 */
core::RunMetrics runCell(const GridCell &cell, JobContext &ctx);

/** See file comment. */
class JobSet
{
  public:
    /**
     * Add one simulation cell; returns its job index. A cell equal to
     * a previously added one (same memo key) is NOT scheduled again —
     * the existing index is returned.
     */
    std::size_t addCell(const core::SystemConfig &sys,
                        const core::DesignConfig &design,
                        const workload::WorkloadParams &app,
                        const core::ExperimentOptions &opts,
                        const std::string &key_suffix = "");

    /**
     * Emit a per-cell cycle-interval timeline for every cell added
     * *after* this call: "<dir>/job<index>-<label>.jsonl", written
     * through the crash-safe AppendLog. @p interval 0 defers to
     * DCL1_TIMELINE_INTERVAL.
     */
    void setTimelineDir(std::string dir, Cycle interval = 0);

    std::size_t size() const { return specs_.size(); }
    const std::string &label(std::size_t i) const
    {
        return specs_[i].label;
    }
    const std::vector<JobSpec> &specs() const { return specs_; }

    /// @name Memoization accounting (addCell calls vs unique jobs)
    /// @{
    std::size_t cellsRequested() const { return cellsRequested_; }
    std::size_t cellsDeduped() const
    {
        return cellsRequested_ - cellsScheduled_;
    }
    /// @}

  private:
    std::vector<JobSpec> specs_;
    std::map<std::string, std::size_t> keyToIndex_;
    std::size_t cellsRequested_ = 0;
    std::size_t cellsScheduled_ = 0;
    std::string timelineDir_;
    Cycle timelineInterval_ = 0;
};

} // namespace dcl1::exec

#endif // DCL1_EXEC_JOB_SET_HH
