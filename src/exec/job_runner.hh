/**
 * @file
 * Work-stealing thread pool executing independent simulation jobs.
 *
 * Threading model
 * ---------------
 * run() resolves a worker count W (min(opts.jobs, #jobs); opts.jobs=0
 * means one worker per hardware thread). W==1 executes every job
 * inline on the calling thread — no threads are spawned, which keeps
 * `--jobs=1` byte-for-byte equivalent to the historical serial tools.
 * For W>1, jobs are dealt round-robin onto per-worker deques; a worker
 * pops from the front of its own deque and steals from the back of its
 * neighbours' when it runs dry. Jobs are coarse (whole simulations),
 * so simple mutex-guarded deques are plenty.
 *
 * Fault isolation
 * ---------------
 * Each job runs under a SimErrorTrap: panic()/fatal() raised inside
 * the simulated machine (and any C++ exception) are captured into the
 * job's JobResult::error instead of terminating the process; the
 * remaining jobs keep running. The cycle-budget watchdog
 * (ExecOptions::cycleBudget) fails runaway jobs the same way.
 *
 * Retry with quarantine
 * ---------------------
 * A failed attempt is classified (FailureKind) before the engine
 * decides what to do with it. Watchdog timeouts retry up to
 * ExecOptions::maxRetries times with an escalating cycle budget;
 * unclassified worker exceptions retry at the same budget; panic() and
 * fatal() are deterministic — re-running an identical pure function
 * cannot help — so those jobs are quarantined on the first attempt.
 * Whatever the outcome, the batch completes with partial results.
 *
 * Durable runs
 * ------------
 * attachManifest() couples a batch to a RunManifest write-ahead log:
 * jobs whose key already carries an ok/quarantined record are satisfied
 * from the log without simulating (JobResult::resumed), and every newly
 * finished ok/quarantined job is appended before the batch moves on.
 * SIGINT (see exec/interrupt.hh) drains in-flight jobs, marks the rest
 * skipped, and finalizes the manifest as "interrupted" so the same
 * command line can resume later.
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
     * JobResult::ok.
     */
    std::vector<JobResult> run(const std::vector<JobSpec> &specs);

    /** Worker count the last/next run resolves to for @p num_jobs. */
    unsigned resolveWorkers(std::size_t num_jobs) const;

    const ExecOptions &options() const { return opts_; }

  private:
    ExecOptions opts_;
    /** Serializes all sink callbacks (see SinkFanout). */
    SinkFanout sinks_;
    RunManifest *manifest_ = nullptr;
    bool claimCells_ = false;
};

} // namespace dcl1::exec

#endif // DCL1_EXEC_JOB_RUNNER_HH
