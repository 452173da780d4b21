/**
 * @file
 * Crash-safe result-file writers.
 *
 * Two failure modes corrupt batch output when a run is killed midway:
 * a truncate-then-write file that dies half-written but *looks*
 * complete, and an interleaved/torn append that loses the tail of a
 * log. The two helpers here are the only sanctioned ways to write
 * result files (lint rule R7 `no-rawwrite` forbids raw std::ofstream /
 * fopen in tools/, bench/ and src/exec/ outside this translation
 * unit):
 *
 *  - AtomicFileWriter buffers everything in memory and publishes with
 *    write-tmp + flush + fsync + rename, so the destination either
 *    keeps its old content or atomically gains the complete new one.
 *  - AppendLog is a write-ahead-log appender: append mode, exactly one
 *    write() per record, flushed per record, so a kill can lose at
 *    most the record being written — never an earlier one, and a
 *    reader never sees an interleaved line.
 *
 * readFileText() is the matching reader for files read back whole.
 */

#ifndef DCL1_EXEC_ATOMIC_FILE_HH
#define DCL1_EXEC_ATOMIC_FILE_HH

#include <cstdio>
#include <optional>
#include <sstream>
#include <string>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"

namespace dcl1::exec
{

/** Whole-file atomic publish: stream into a buffer, then commit(). */
class AtomicFileWriter
{
  public:
    explicit AtomicFileWriter(std::string path);
    ~AtomicFileWriter(); ///< discards the buffer if never committed

    AtomicFileWriter(const AtomicFileWriter &) = delete;
    AtomicFileWriter &operator=(const AtomicFileWriter &) = delete;

    /** Buffer to write the file content into. */
    std::ostream &stream() { return buf_; }

    /**
     * Publish: write the buffer to "<path>.tmp.<pid>" (per-process,
     * so concurrent fleet workers rewriting the same file never touch
     * each other's temp), flush + fsync, then rename over the
     * destination. fatal() on any I/O error (a result file that
     * silently failed to land is worse than a crash).
     */
    void commit();

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::ostringstream buf_;
    bool committed_ = false;
};

/**
 * Line-atomic append log (see file comment). Opened lazily.
 *
 * Thread-safe: the handle and the warn-once latch are guarded by an
 * internal mutex, so one AppendLog may be shared by concurrent workers
 * (the jobs.jsonl WAL and the JSONL sink are) — each appendLine() call
 * lands as one whole record regardless of the calling thread.
 */
class AppendLog
{
  public:
    explicit AppendLog(std::string path);
    ~AppendLog();

    AppendLog(const AppendLog &) = delete;
    AppendLog &operator=(const AppendLog &) = delete;

    /**
     * Append @p line (a trailing newline is added) with one write and
     * an immediate flush. The first record after opening a file whose
     * last line is torn starts with a newline, in the same write.
     * @return false (after warning once) when the file cannot be
     * opened or written.
     */
    bool appendLine(const std::string &line) DCL1_EXCLUDES(mutex_);

    const std::string &path() const { return path_; }

  private:
    Mutex mutex_;
    std::string path_;
    std::FILE *file_ DCL1_GUARDED_BY(mutex_) = nullptr;
    bool warned_ DCL1_GUARDED_BY(mutex_) = false;
};

/**
 * Whole content of @p path, or nullopt when it cannot be opened: the
 * one reader for manifests, crash records, job mixes and job traces.
 */
std::optional<std::string> readFileText(const std::string &path);

/**
 * Create directory @p path (and missing parents) if absent; fatal()
 * when it cannot be created.
 */
void ensureDirectory(const std::string &path);

} // namespace dcl1::exec

#endif // DCL1_EXEC_ATOMIC_FILE_HH
