/**
 * @file
 * Run observability: pluggable sinks fed by the JobRunner.
 *
 * Sinks observe job lifecycle events as they happen (completion
 * order!) and the end-of-run summary. The runner serializes all sink
 * calls under one mutex, so implementations need no locking of their
 * own; they must not block for long (they run inside worker threads).
 */

#ifndef DCL1_EXEC_RESULT_SINK_HH
#define DCL1_EXEC_RESULT_SINK_HH

#include <string>
#include <vector>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "exec/atomic_file.hh"
#include "exec/job.hh"

namespace dcl1::exec
{

/** Aggregate batch statistics reported once at the end of a run. */
struct RunSummary
{
    std::size_t totalJobs = 0;
    std::size_t failedJobs = 0;
    /** Failed deterministically (panic/fatal); resuming never helps. */
    std::size_t quarantinedJobs = 0;
    /** Satisfied from the run manifest without simulating. */
    std::size_t resumedJobs = 0;
    /** Never started: the batch was interrupted first. */
    std::size_t skippedJobs = 0;
    /** Claimed by another worker process, so not run here. */
    std::size_t deferredJobs = 0;
    /** SIGINT (or injected interrupt): in-flight jobs were drained,
     *  the rest skipped; the batch is resumable. */
    bool interrupted = false;
    unsigned workers = 0;
    double wallMs = 0.0; ///< whole-batch host wall time
    double cpuMs = 0.0;  ///< sum of per-job wall times
    /** cpuMs / (wallMs * workers): 1.0 = perfectly busy pool. */
    double utilization = 0.0;
    /** Job indices sorted by descending wall time (at most five). */
    std::vector<std::size_t> slowest;
};

/** Lifecycle observer; default implementation ignores everything. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** Batch is about to start. */
    virtual void onRunStart(std::size_t num_jobs, unsigned workers)
    {
        (void)num_jobs;
        (void)workers;
    }

    /** A worker picked up job @p index. */
    virtual void onJobStart(std::size_t index, const std::string &label,
                            unsigned worker)
    {
        (void)index;
        (void)label;
        (void)worker;
    }

    /** Job finished (ok or failed); called in completion order. */
    virtual void onJobDone(const JobResult &result) { (void)result; }

    /** Batch finished; @p results is ordered by job index. */
    virtual void onRunEnd(const RunSummary &summary,
                          const std::vector<JobResult> &results)
    {
        (void)summary;
        (void)results;
    }
};

/**
 * Human progress on stderr: a "[exec] 17/140 ok ..." line per finished
 * job plus an end-of-run summary with the slowest jobs and the pool
 * utilization.
 */
class ProgressSink : public ResultSink
{
  public:
    void onRunStart(std::size_t num_jobs, unsigned workers) override;
    void onJobDone(const JobResult &result) override;
    void onRunEnd(const RunSummary &summary,
                  const std::vector<JobResult> &results) override;

  private:
    std::size_t total_ = 0;
    std::size_t done_ = 0;
};

/**
 * Machine-readable per-job records: one JSON object per line, written
 * in completion order (each record carries its job index), plus a
 * final summary record. Records ride an AppendLog — append mode, one
 * write + flush per record — so a killed sweep leaves every finished
 * record intact and never a torn line, and successive runs extend the
 * log instead of truncating it. The JobRunner owns the one for
 * ExecOptions::jsonlPath (--jsonl, DCL1_JOBS_LOG).
 */
class JsonlSink : public ResultSink
{
  public:
    explicit JsonlSink(std::string path);

    void onJobDone(const JobResult &result) override;
    void onRunEnd(const RunSummary &summary,
                  const std::vector<JobResult> &results) override;

  private:
    AppendLog log_;
};

/**
 * The JobRunner's fan-out point: holds the registered sinks and
 * serializes every lifecycle callback under one mutex, which is the
 * "runner serializes all sink calls" guarantee the ResultSink contract
 * promises (implementations need no locking of their own). Worker
 * threads call the forwarding methods concurrently.
 */
class SinkFanout
{
  public:
    /** Register @p sink (not owned; null is ignored). */
    void add(ResultSink *sink) DCL1_EXCLUDES(mutex_);

    void runStart(std::size_t num_jobs, unsigned workers)
        DCL1_EXCLUDES(mutex_);
    void jobStart(std::size_t index, const std::string &label,
                  unsigned worker) DCL1_EXCLUDES(mutex_);
    void jobDone(const JobResult &result) DCL1_EXCLUDES(mutex_);
    void runEnd(const RunSummary &summary,
                const std::vector<JobResult> &results)
        DCL1_EXCLUDES(mutex_);

  private:
    Mutex mutex_;
    std::vector<ResultSink *> sinks_ DCL1_GUARDED_BY(mutex_);
};

} // namespace dcl1::exec

#endif // DCL1_EXEC_RESULT_SINK_HH
