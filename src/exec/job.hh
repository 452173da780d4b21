/**
 * @file
 * Job model of the parallel experiment-execution engine.
 *
 * A *job* is one independent simulation (or any other self-contained
 * unit of work) described by a JobSpec and producing a JobResult. Jobs
 * never share simulated state: every GpuSystem is built, ticked and
 * torn down on the worker thread that runs the job, which is what
 * makes the thread-local invariant-checking machinery (request ledger,
 * fetch-leak flag) line up with the threading model for free.
 *
 * Results land indexed by *job index*, not completion order, so a
 * parallel run is observationally identical to a serial one for any
 * consumer that reads results after run() returns.
 *
 * Host-side wall-clock timing lives here deliberately: the execution
 * engine measures the *host*, never the simulated machine, so the
 * no-wallclock simulation lint does not apply (see the audited
 * `lint: wallclock-ok` annotations in job_runner.cc).
 */

#ifndef DCL1_EXEC_JOB_HH
#define DCL1_EXEC_JOB_HH

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "common/types.hh"
#include "core/gpu_system.hh"
#include "prof/prof.hh"

namespace dcl1::exec
{

/** Thrown by JobContext::checkCycleBudget when a job overruns. */
class CycleBudgetExceeded : public std::runtime_error
{
  public:
    explicit CycleBudgetExceeded(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/**
 * Why a job failed; drives the retry-with-quarantine policy.
 *
 * Timeout (the cooperative cycle-budget watchdog fired) is the only
 * kind the policy considers possibly-spurious: the job is retried up
 * to ExecOptions::maxRetries times with an escalating budget.
 * WorkerException (any C++ exception the model did not classify, e.g.
 * bad_alloc under a loaded pool) is retried without escalation.
 * SimBug (panic) and ConfigError (fatal) are *deterministic* — the
 * simulator is a pure function of its configuration — so those jobs
 * are quarantined immediately and never burn a retry.
 */
enum class FailureKind : std::uint8_t
{
    None,            ///< job succeeded
    Timeout,         ///< cycle-budget watchdog fired (retryable)
    SimBug,          ///< panic(): internal invariant violated
    ConfigError,     ///< fatal(): impossible configuration
    WorkerException, ///< unclassified C++ exception on the worker
};

/** Human-readable FailureKind name (stable; used in crash records). */
const char *failureKindName(FailureKind kind);

/** Engine-wide knobs. */
struct ExecOptions
{
    /** Worker count; 0 = one per hardware thread. */
    unsigned jobs = 0;

    /**
     * Per-job simulated-cycle watchdog budget; 0 = unlimited. A grid
     * job whose warmup+measure interval exceeds the budget is failed
     * (mid-run, via the GpuSystem heartbeat) instead of hogging a
     * worker forever.
     */
    Cycle cycleBudget = 0;

    /**
     * Retries after the first failed attempt for *retryable* failures
     * (Timeout, WorkerException). Timeouts escalate: attempt k runs
     * with cycleBudget * budgetEscalation^k. Quarantined failures
     * (SimBug/ConfigError) never retry.
     */
    unsigned maxRetries = 2;

    /** Budget multiplier per timeout retry (>= 1). */
    double budgetEscalation = 2.0;

    /**
     * When non-empty, every job that ends failed writes a structured
     * crash record to "<crashDir>/<job>.json" (config, last cycle,
     * queue depths, recent ledger events) — replayable with
     * `dcl1run --replay-crash`. A durable run directory supplies its
     * own "crash/" subdirectory when this is unset.
     */
    std::string crashDir;

    /** Emit per-job progress lines to stderr. */
    bool progress = true;

    /** When non-empty, append one JSON record per job to this file. */
    std::string jsonlPath;

    /**
     * Install a host phase profiler (src/prof/) on each job's worker
     * thread and publish its Report through JobResult::prof and the
     * jobs.jsonl "prof" field. Purely observational: simulated output
     * is byte-identical either way.
     */
    bool profile = false;

    /** Worker count a value of jobs==0 resolves to. */
    static unsigned hardwareConcurrency();

    /**
     * Environment defaults: DCL1_JOBS (worker count), DCL1_JOB_BUDGET
     * (per-job cycle budget), DCL1_RETRIES (retry count),
     * DCL1_CRASH_DIR (crash-record directory), DCL1_JOBS_LOG (JSONL
     * path), DCL1_PROF (any value = host phase profiling on). All
     * strictly parsed.
     */
    static ExecOptions fromEnv();
};

/** Per-job view of the engine handed to the job function. */
class JobContext
{
  public:
    JobContext(std::size_t index, unsigned worker, Cycle cycle_budget)
        : index_(index), worker_(worker), cycleBudget_(cycle_budget)
    {
    }

    /** Index of this job in the submitted JobSet/spec vector. */
    std::size_t index() const { return index_; }

    /** Worker thread (0-based) executing the job. */
    unsigned worker() const { return worker_; }

    /** Configured per-job cycle budget (0 = unlimited). */
    Cycle cycleBudget() const { return cycleBudget_; }

    /**
     * Cooperative watchdog check: throw CycleBudgetExceeded when
     * @p simulated_cycles exceeds the configured budget. Grid jobs
     * call this from the GpuSystem run-loop heartbeat; custom jobs
     * with their own tick loops should call it periodically too.
     */
    void checkCycleBudget(Cycle simulated_cycles) const;

    /**
     * Attach crash-diagnostic context: a JSON *fragment* (one or more
     * `"field":value` members, no surrounding braces) describing the
     * job's configuration and — when set from a failure path — the
     * machine state at the moment of death. The engine embeds it in
     * the crash record it writes for a job that ends failed.
     */
    void setCrashContext(std::string json_fragment)
    {
        crashContext_ = std::move(json_fragment);
    }

    const std::string &crashContext() const { return crashContext_; }

    /**
     * Record where this job wrote its cycle-interval timeline (empty =
     * no timeline). Propagated into the JobResult, the per-job JSONL
     * record and the durable WAL, so a resumed run can locate the
     * partial timeline of a job it is skipping.
     */
    void setTimelinePath(std::string path)
    {
        timelinePath_ = std::move(path);
    }

    const std::string &timelinePath() const { return timelinePath_; }

  private:
    std::size_t index_;
    unsigned worker_;
    Cycle cycleBudget_;
    std::string crashContext_;
    std::string timelinePath_;
};

/** The work itself: runs on one worker thread, returns the metrics. */
using JobFn = std::function<core::RunMetrics(JobContext &)>;

/** One schedulable unit. */
struct JobSpec
{
    std::string label; ///< "design/app" style display name
    JobFn fn;
    /**
     * Durable identity: (design, app, opts, platform, seed) key set by
     * JobSet::addCell. A run manifest matches completed records by
     * this key on resume; empty = the job is never resumed/recorded.
     * Explicitly value-initialized so brace-initializing only
     * {label, fn} — the unkeyed-job idiom all over the tests — stays
     * clean under -Wmissing-field-initializers.
     */
    std::string key{};
};

/** Outcome of one job; results are ordered by index, never by finish. */
struct JobResult
{
    std::size_t index = 0;
    std::string label;
    std::string key;          ///< durable identity (see JobSpec::key)
    bool ok = false;
    std::string error;        ///< captured panic/fatal/exception text
    FailureKind kind = FailureKind::None; ///< failure classification
    unsigned attempts = 0;    ///< executed attempts (0 = never ran)
    bool quarantined = false; ///< deterministic failure; never retried
    bool resumed = false;     ///< satisfied from a run manifest record
    bool skipped = false;     ///< batch interrupted before it started
    bool deferred = false;    ///< cell claimed by another worker process
    core::RunMetrics metrics; ///< valid only when ok
    double wallMs = 0.0;      ///< host wall time of this job
    unsigned worker = 0;      ///< worker thread that executed it
    std::string timelinePath; ///< per-job timeline JSONL ("" = none)
    /** Host phase profile of the final attempt (enabled == false
     *  unless ExecOptions::profile was set). wallNs covers the whole
     *  job bracket, retries included. */
    prof::Report prof;
};

} // namespace dcl1::exec

#endif // DCL1_EXEC_JOB_HH
