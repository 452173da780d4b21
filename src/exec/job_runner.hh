/**
 * @file
 * Thread pool executing independent simulation jobs, each exactly once.
 *
 * Threading model
 * ---------------
 * run() resolves a worker count W (min(opts.jobs, #jobs); opts.jobs=0
 * means one worker per hardware thread). The jobs left to run form
 * one queue in index order; each worker takes the next job from a
 * shared atomic cursor until the queue is empty. Worker 0 is the
 * calling thread, so W==1 spawns no thread and runs the jobs in index
 * order — `--jobs=1` stays byte-for-byte equivalent to the historical
 * serial tools. Jobs are coarse (whole simulations), so one cursor is
 * all the balancing they need.
 *
 * Fault isolation
 * ---------------
 * Each job runs once under a SimErrorTrap: panic()/fatal() raised
 * inside the simulated machine (and any C++ exception) are captured
 * into the job's JobResult::error instead of terminating the process;
 * the remaining jobs keep running. The failure is classified
 * (Outcome): panic() and fatal() are deterministic — re-running an
 * identical pure function cannot help — so those jobs are quarantined.
 * Any other exception leaves a failed job with no durable record, and
 * a later --resume runs it again. The engine never re-runs a job
 * itself; whatever the outcome, the batch completes with partial
 * results.
 *
 * Durable runs
 * ------------
 * attachManifest() couples a batch to a RunManifest write-ahead log:
 * jobs whose key already carries an ok/quarantined record are satisfied
 * from the log without simulating (JobResult::resumed), and every newly
 * finished job is passed to the log, which keeps the ok/quarantined
 * ones, before the batch moves on. This is the only retry: a resume
 * runs every job without a record. SIGINT (see exec/interrupt.hh)
 * drains in-flight jobs, leaves the rest Skipped, and finalizes the
 * manifest as "interrupted" so the same command line can resume later.
 *
 * Determinism
 * -----------
 * Results are stored by job index. Every simulation is a pure function
 * of its configuration (per-thread ledger, per-instance RNG/stats), so
 * the result vector — and anything derived from it in index order — is
 * identical for any W.
 */

#ifndef DCL1_EXEC_JOB_RUNNER_HH
#define DCL1_EXEC_JOB_RUNNER_HH

#include <optional>
#include <vector>

#include "exec/job.hh"
#include "exec/result_sink.hh"

namespace dcl1::exec
{

class RunManifest;

/** See file comment. */
class JobRunner
{
  public:
    /** With ExecOptions::jsonlPath set, the runner writes that log. */
    explicit JobRunner(ExecOptions opts = {});

    /** Attach an observer (not owned; must outlive run()). */
    void addSink(ResultSink *sink);

    /**
     * Couple the next run() to a durable-run manifest (not owned; must
     * outlive run()). Completed records satisfy matching jobs without
     * re-simulating; new completions are appended to the write-ahead
     * log as they land; run() finalizes the manifest on the way out.
     *
     * With @p claim_cells (a fleet worker's pass), each keyed job must
     * first win RunManifest::claim: a cell another process claimed is
     * *deferred*, not run, and run() leaves finalization to the merge
     * run that follows the workers.
     */
    void attachManifest(RunManifest *manifest, bool claim_cells = false);

    /**
     * Execute every spec; blocks until all are done. Results are
     * indexed like @p specs. Never throws for job failures — inspect
     * JobResult::outcome.
     */
    std::vector<JobResult> run(const std::vector<JobSpec> &specs);

    /** Worker count the last/next run resolves to for @p num_jobs. */
    unsigned resolveWorkers(std::size_t num_jobs) const;

  private:
    ExecOptions opts_;
    /** Serializes all sink callbacks (see SinkFanout). */
    SinkFanout sinks_;
    std::optional<JsonlSink> jsonl_; ///< the ExecOptions::jsonlPath log
    RunManifest *manifest_ = nullptr;
    bool claimCells_ = false;
};

} // namespace dcl1::exec

#endif // DCL1_EXEC_JOB_RUNNER_HH
