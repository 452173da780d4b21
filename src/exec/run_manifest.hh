/**
 * @file
 * Durable run directories: manifest + per-job write-ahead log.
 *
 * A durable batch writes a *run directory*:
 *
 *     <dir>/manifest.json   identity + status (atomic rewrite)
 *     <dir>/jobs.jsonl      one record per finished job (WAL append)
 *     <dir>/crash/          crash records of failed jobs (.json)
 *     <dir>/claims/         one empty file per cell a worker claimed
 *
 * The manifest pins the run's identity: a configuration description
 * (tool, grid, cycle budgets, platform, seed) plus the build
 * signature (WAL schema, DCL1_CHECK). Reopening a directory whose
 * identity does not match the current invocation is refused — a
 * resumed half-batch silently mixed with different settings would
 * produce a CSV that *looks* complete and is wrong.
 *
 * Resume matching: a job is skipped iff a WAL record exists for its
 * JobSpec::key — (design, app, measure/warmup cycles, platform
 * summary, seed, key suffix) — and that record is either `ok` or
 * `quarantined`. Quarantined failures are deterministic, so re-running
 * them cannot help; worker exceptions are *not* recorded and therefore
 * re-run on resume. Metrics round-trip
 * through "%.17g", so a resumed batch reproduces a clean run's CSV
 * byte for byte.
 *
 * Fleet workers (`dcl1sweep --worker`) share one directory: each cell
 * is run only by the process that wins its write-once claim file.
 * Claims are never renewed, released or reclaimed. A worker that dies
 * mid-cell leaves a claim with no WAL record, and the plain resume run
 * that merges the fleet simulates that cell like any other missing
 * one. No timeout is needed because results are deterministic: a
 * duplicate record would be byte-identical.
 */

#ifndef DCL1_EXEC_RUN_MANIFEST_HH
#define DCL1_EXEC_RUN_MANIFEST_HH

#include <map>
#include <memory>
#include <string>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "exec/atomic_file.hh"
#include "exec/job.hh"

namespace dcl1::exec
{

/** Serialize metrics as a JSON object; doubles use %.17g (exact). */
std::string runMetricsJson(const core::RunMetrics &rm);

/**
 * Parse runMetricsJson output; false on malformed JSON or a missing or
 * mistyped field (counts must be unsigned integers).
 */
bool parseRunMetricsJson(const std::string &text, core::RunMetrics &rm);

/** Identity of the producing build (WAL schema + check mode). */
std::string buildSignature();

/**
 * See file comment.
 *
 * Thread-safe: completed records and the WAL handle are guarded by an
 * internal mutex, so workers append concurrently while the engine
 * resolves resume matches — the JobRunner needs no lock of its own
 * around manifest calls.
 */
class RunManifest
{
  public:
    /**
     * Open @p dir as a durable run for @p config (a human-readable
     * configuration description). Creates the directory + manifest on
     * first use; on reopen, fatal()s unless the stored config and
     * build signature match, then loads every completed record.
     */
    static std::unique_ptr<RunManifest>
    openOrCreate(const std::string &dir, const std::string &config);

    /**
     * Completed (ok or quarantined) record for @p key, else null.
     * std::map nodes are stable, so the pointer survives later
     * append()s; records are resolved before workers start, and a key
     * is re-appended only with identical content, so the pointee never
     * changes under a reader.
     */
    const JobRecord *find(const std::string &key) const
        DCL1_EXCLUDES(mutex_);

    /**
     * Record a finished job (WAL append; crash-safe per record). Only
     * keyed ok or quarantined records are durable: any other outcome
     * is dropped, so a resume runs that job again.
     */
    void append(const JobRecord &record) DCL1_EXCLUDES(mutex_);

    /**
     * Claim the cell @p key for this process: create
     * `claims/<claimFileName(key)>` with O_CREAT|O_EXCL, which exactly
     * one caller across all processes can win. False = claimed
     * already (or the create failed): leave the cell to its claimant
     * or to the merge run.
     */
    bool claim(const std::string &key) const;

    /** Claim file name for @p key: sanitized prefix + stable hash. */
    static std::string claimFileName(const std::string &key);

    /** Rewrite the manifest with a final status ("complete",
     *  "interrupted"); atomic, so a crash keeps the old manifest. */
    void finalize(const std::string &status) DCL1_EXCLUDES(mutex_);

    std::size_t
    completedCount() const DCL1_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return records_.size();
    }

    const std::string &dir() const { return dir_; }
    std::string crashDir() const { return dir_ + "/crash"; }
    std::string walPath() const { return dir_ + "/jobs.jsonl"; }

    /** Use openOrCreate(); public only for std::make_unique. */
    RunManifest(std::string dir, std::string config);

  private:
    void writeManifestFile(const std::string &status)
        DCL1_REQUIRES(mutex_);
    void loadRecords() DCL1_REQUIRES(mutex_);

    std::string dir_;
    std::string config_;
    mutable Mutex mutex_;
    AppendLog wal_; ///< internally locked; ordered after mutex_
    std::map<std::string, JobRecord> records_ DCL1_GUARDED_BY(mutex_);
};

} // namespace dcl1::exec

#endif // DCL1_EXEC_RUN_MANIFEST_HH
