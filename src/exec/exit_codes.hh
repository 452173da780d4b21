/**
 * @file
 * The exit-code contract of the dcl1 tools.
 *
 * One authoritative definition, referenced by both tools' --help text,
 * the README and the CI smoke scripts; tests/test_exec.cc pins the
 * numeric values so they can never silently drift.
 */

#ifndef DCL1_EXEC_EXIT_CODES_HH
#define DCL1_EXEC_EXIT_CODES_HH

namespace dcl1::exec
{

/** Everything completed and every cell/run succeeded. */
inline constexpr int kExitOk = 0;

/** fatal(): impossible configuration or unusable option/environment
 *  (the process-wide convention; not engine-specific). */
inline constexpr int kExitConfigError = 1;

/** dcl1run: the single requested simulation failed (panic, budget). */
inline constexpr int kExitRunFailed = 2;

/** Sweep completed, but at least one cell failed for a *retryable*
 *  reason (watchdog timeout with retries exhausted, worker
 *  exception). Rows are dropped; rerunning or resuming with a larger
 *  budget may recover the missing cells. */
inline constexpr int kExitFailedCells = 3;

/** Sweep interrupted (SIGINT / --interrupt-after): in-flight jobs
 *  were drained, the run manifest was finalized (a --worker pass
 *  leaves that to the merge run), and the batch can be continued with
 *  --resume=DIR. No CSV is written. */
inline constexpr int kExitResumable = 4;

/** Sweep completed and every failed cell was *quarantined*: its
 *  failure is deterministic (panic or config error inside the model),
 *  so retrying — or resuming — will never recover it. Partial results
 *  were written; the quarantine report lists the poisoned cells. */
inline constexpr int kExitQuarantined = 5;

/** The named run directory exists but cannot be used by this
 *  invocation: its manifest was written by an incompatible build (WAL
 *  schema / DCL1_CHECK signature mismatch) or is not a dcl1 manifest
 *  at all. Distinct from kExitConfigError so fleet launchers can tell
 *  "wrong binary against this run directory" (stop the fleet) apart
 *  from a worker's bad flag. */
inline constexpr int kExitIncompatibleRunDir = 6;

/** One-paragraph contract shared by both tools' --help output. */
inline constexpr const char *kExitCodeContract =
    "exit codes: 0 ok; 1 bad configuration/options; 2 single run "
    "failed (dcl1run); 3 sweep completed with retryable failed cells "
    "(rows dropped); 4 sweep interrupted, resumable with --resume=DIR; "
    "5 sweep completed with deterministically failing (quarantined) "
    "cells; 6 run directory written by an incompatible build/schema";

} // namespace dcl1::exec

#endif // DCL1_EXEC_EXIT_CODES_HH
