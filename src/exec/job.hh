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
#include <string>

#include "core/gpu_system.hh"
#include "prof/prof.hh"

namespace dcl1::exec
{

/**
 * How a job ended, or why it did not run in this batch.
 *
 * SimBug (panic) and ConfigError (fatal) are *deterministic* — the
 * simulator is a pure function of its configuration — so those jobs
 * are quarantined: the durable log records them and a resume does
 * not run them again. WorkerException (any C++ exception the model
 * did not classify, e.g. bad_alloc under a loaded pool) is not
 * recorded, so the next --resume runs the job again, as it does a
 * Skipped or Deferred one.
 */
enum class Outcome : std::uint8_t
{
    Ok,              ///< job succeeded
    SimBug,          ///< panic(): internal invariant violated
    ConfigError,     ///< fatal(): impossible configuration
    WorkerException, ///< unclassified C++ exception on the worker
    Skipped,         ///< never started: the batch was interrupted first
    Deferred,        ///< cell claimed by another worker process
};

/**
 * Stable Outcome name, written as a record's "kind" ("none" for Ok,
 * the failure kind of a job that did not fail).
 */
const char *outcomeName(Outcome outcome);

/** Engine-wide knobs. */
struct ExecOptions
{
    /** Worker count; 0 = one per hardware thread. */
    unsigned jobs = 0;

    /** The most workers DCL1_JOBS or a --jobs flag accepts. */
    static constexpr unsigned kMaxJobs = 4096;

    /**
     * When non-empty, every job that ends failed writes a structured
     * crash record to "<crashDir>/<job>.json" (config, last cycle,
     * queue depths, recent ledger events) — replayable with
     * `dcl1run --replay-crash`. A durable run directory supplies its
     * own "crash/" subdirectory when this is unset.
     */
    std::string crashDir;

    /**
     * When non-empty, the runner appends one JSON record per job and
     * a summary record to this file (a JsonlSink it owns).
     */
    std::string jsonlPath;

    /**
     * Install a host phase profiler (src/prof/) on each job's worker
     * thread and publish its Report through JobResult::prof and the
     * per-job log's "prof" field. Purely observational: simulated
     * output is byte-identical either way.
     */
    bool profile = false;

    /** Worker count a value of jobs==0 resolves to. */
    static unsigned hardwareConcurrency();

    /**
     * Environment defaults: DCL1_JOBS (worker count), DCL1_CRASH_DIR
     * (crash-record directory), DCL1_JOBS_LOG (JSONL path), DCL1_PROF
     * (any value = host phase profiling on). All strictly parsed.
     */
    static ExecOptions fromEnv();
};

/** Per-job view of the engine handed to the job function. */
class JobContext
{
  public:
    explicit JobContext(std::size_t index) : index_(index) {}

    /** Index of this job in the submitted JobSet/spec vector. */
    std::size_t index() const { return index_; }

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
     * no timeline). Propagated into the job's record, the per-job JSONL
     * log and the durable WAL, so a resumed run can locate the
     * partial timeline of a job it is skipping.
     */
    void setTimelinePath(std::string path)
    {
        timelinePath_ = std::move(path);
    }

    const std::string &timelinePath() const { return timelinePath_; }

  private:
    std::size_t index_;
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

/**
 * How one job ended: the line a durable run's write-ahead log holds
 * for it (see run_manifest.hh) and the part of a JobResult a resume
 * restores.
 */
struct JobRecord
{
    std::string key;   ///< durable identity (see JobSpec::key)
    std::string label;
    Outcome outcome = Outcome::Skipped;
    std::string error;        ///< captured panic/fatal/exception text
    core::RunMetrics metrics; ///< valid only when ok()
    std::string timeline;     ///< per-job timeline JSONL ("" = none)

    bool ok() const { return outcome == Outcome::Ok; }

    /** Failed deterministically (panic/fatal); never re-run. */
    bool
    quarantined() const
    {
        return outcome == Outcome::SimBug ||
               outcome == Outcome::ConfigError;
    }

    /** One JSONL line. */
    std::string toJsonLine() const;

    /**
     * Parse a toJsonLine() line; false unless the line is exactly one
     * JSON object whose ok/quarantined are booleans that agree with
     * its kind (one of them true), attempts an unsigned int and, for
     * an ok record, metrics complete. Unknown members are ignored.
     */
    static bool fromJsonLine(const std::string &line, JobRecord &out);
};

/**
 * A job's record plus the host facts only a live run has. Results are
 * ordered by index, never by finish; each starts Skipped.
 */
struct JobResult : JobRecord
{
    std::size_t index = 0;
    bool resumed = false; ///< satisfied from a run manifest record
    double wallMs = 0.0;  ///< host wall time of this job
    unsigned worker = 0;  ///< worker thread that executed it
    /** Host phase profile of the job (enabled == false unless
     *  ExecOptions::profile was set). */
    prof::Report prof;
};

} // namespace dcl1::exec

#endif // DCL1_EXEC_JOB_HH
