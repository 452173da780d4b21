/**
 * @file
 * Cooperative SIGINT/SIGTERM handling for durable batch runs.
 *
 * A durable sweep must not die mid-record on Ctrl-C or a fleet
 * launcher's terminate: the handler only raises a flag; the JobRunner
 * stops dispatching new jobs, drains the ones already in flight,
 * finalizes the run manifest (a fleet worker leaves that to the
 * merge), and the tool exits with kExitResumable. SIGTERM matters for
 * fleet workers: orchestrators (dcl1fleet, CI runners, kubelet-style
 * supervisors) terminate with SIGTERM, and a worker that drains
 * cooperatively finishes every cell it claimed, so the merge has none
 * of them to redo. A second signal (either one) restores the default
 * disposition and re-raises, so an impatient double Ctrl-C still
 * force-kills.
 *
 * Tests (and the deterministic CI smoke) inject the same signal via
 * requestInterrupt() instead of delivering a real signal.
 */

#ifndef DCL1_EXEC_INTERRUPT_HH
#define DCL1_EXEC_INTERRUPT_HH

namespace dcl1::exec
{

/** Install the cooperative SIGINT+SIGTERM handler (idempotent). */
void installSignalHandlers();

/** Raise the interrupt flag (what the signal handler does). */
void requestInterrupt();

/** Has an interrupt been requested? Checked between jobs. */
bool interruptRequested();

/** Reset the flag (tests; a resumed batch starts clean). */
void clearInterrupt();

} // namespace dcl1::exec

#endif // DCL1_EXEC_INTERRUPT_HH
