/**
 * @file
 * Structured crash diagnostics for failed jobs.
 *
 * A failed cell in an hours-long batch must be reproducible from its
 * record alone: the engine writes "<crashDir>/jobNNN-<label>.json"
 * containing the full job configuration, the failure classification
 * and error text, and — when the job cooperated via
 * JobContext::setCrashContext — the machine state at the moment of
 * death (current cycle, per-component queue depths, and the last
 * request-ledger events in DCL1_CHECK builds).
 *
 * `dcl1run --replay-crash=<file>` re-runs exactly the recorded
 * configuration, turning a forensic record back into a live,
 * debuggable simulation.
 */

#ifndef DCL1_EXEC_CRASH_RECORD_HH
#define DCL1_EXEC_CRASH_RECORD_HH

#include <string>

#include "common/types.hh"
#include "exec/job.hh"

namespace dcl1::core
{
class GpuSystem;
struct SystemConfig;
} // namespace dcl1::core

namespace dcl1::exec
{

/**
 * JSON fragment (no surrounding braces) describing the live machine:
 * `"state":{cycle, per-node queue depths, DRAM queues},"ledger":{...}`.
 * Call from a catch block while the GpuSystem is still alive.
 */
std::string crashSnapshotJson(core::GpuSystem &gpu);

/**
 * Write the crash record for @p result into @p dir (created when
 * missing). @p context is the job's crash-context fragment (config +
 * optional state). Never throws: forensics must not mask the original
 * failure.
 */
void writeCrashRecord(const std::string &dir, const JobResult &result,
                      const std::string &context);

/**
 * Per-job file name "job007-Sh40_T-AlexNet<extension>": characters
 * outside [A-Za-z0-9+.-] become '_', so '/' never splits the path.
 */
std::string jobFileName(std::size_t index, const std::string &label,
                        const char *extension);

/** File name the record for job @p index / @p label lands under. */
std::string crashRecordName(std::size_t index, const std::string &label);

/** Everything --replay-crash needs to rebuild the recorded cell. */
struct CrashConfig
{
    std::string design = "Baseline";
    std::string app;   ///< catalog app (empty when a trace was run)
    std::string trace; ///< trace file path (trace-mode records)
    std::uint32_t cores = 80;
    std::uint32_t slices = 32;
    std::uint32_t channels = 16;
    std::uint64_t seed = 1;
    Cycle measure = 30000;
    Cycle warmup = 40000;
    std::string label; ///< original job label (informational)
    std::string error; ///< recorded failure text (informational)
};

/** The replayable crash-context fields loadCrashRecord() reads back;
 *  a non-empty @p trace is recorded instead of @p app. */
std::string crashConfigJson(const std::string &design,
                            const std::string &app,
                            const std::string &trace,
                            const core::SystemConfig &sys, Cycle measure,
                            Cycle warmup);

/** Load a crash record; fatal() when it is unreadable, not strict
 *  JSON, config-less, or has a number outside its dcl1run range. */
CrashConfig loadCrashRecord(const std::string &path);

} // namespace dcl1::exec

#endif // DCL1_EXEC_CRASH_RECORD_HH
