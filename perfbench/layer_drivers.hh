/**
 * @file
 * Layer drivers: time one simulator layer's public calls in isolation,
 * for the layers the profiler's phases lump together (the generator,
 * the L1 bank and the replication directory all run inside the `core`
 * phase; crossbar allocation inside `noc`).
 *
 * Every driver generates its inputs from the workload's own app
 * parameters and seed before the clock starts, times a fixed amount of
 * work, and reports the median of a few repeats in ns per unit of work.
 */

#ifndef DCL1_PERFBENCH_LAYER_DRIVERS_HH
#define DCL1_PERFBENCH_LAYER_DRIVERS_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/design.hh"
#include "core/system_config.hh"
#include "mem/cache_bank.hh"
#include "workload/workload.hh"

namespace dcl1::perfbench
{

using HostClock = std::chrono::steady_clock;

/** Nanoseconds elapsed since @p start. */
double nsSince(HostClock::time_point start);

/** Median of @p values (mean of the middle two for an even count). */
double median(std::vector<double> values);

/** One simulated configuration: platform (with seed), design, app. */
struct Cell
{
    core::SystemConfig sys;
    core::DesignConfig design;
    workload::WorkloadParams app;
};

/** ns per SyntheticSource::nextInstr call. */
double timeWorkloadNsPerInstr(const Cell &cell);

/** Result of the L1 bank driver and its recorded directory replay. */
struct L1Timing
{
    double l1NsPerAccess = 0.0;      ///< access + fill + takeCompleted
    double trackerNsPerEvent = 0.0;  ///< install / evict / miss calls
    std::uint64_t accesses = 0;      ///< bank accesses per repeat
    std::uint64_t trackerEvents = 0; ///< listener events per repeat
};

/**
 * Drive one bank per tracked cache (a private L1 per core on Baseline,
 * a DC-L1 per node otherwise) with @p geometry, fed by the app's L1
 * access stream and a fixed-latency memory behind every bank. The
 * banks' listener records every directory event; the recorded events
 * are then replayed, timed, into a fresh ReplicationTracker.
 */
L1Timing timeL1AndTracker(const Cell &cell,
                          const mem::CacheBankParams &geometry);

/**
 * ns per Crossbar::tick (one core cycle) of the design's largest
 * crossbar at its own clock ratio, with inject and eject included,
 * under Bernoulli traffic of @p flits_per_input_cycle flits per input
 * per core cycle in packets averaging @p flits_per_packet flits.
 */
double timeXbarNsPerTick(const Cell &cell, double flits_per_input_cycle,
                         double flits_per_packet);

} // namespace dcl1::perfbench

#endif // DCL1_PERFBENCH_LAYER_DRIVERS_HH
