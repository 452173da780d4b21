/**
 * @file
 * Shared harness for the paper-reproduction benchmarks.
 *
 * Every bench binary reproduces one table or figure: it runs the
 * required (design, application) grid on the Table II platform and
 * prints the same rows/series the paper reports, normalized to the
 * private-L1 baseline.
 *
 * Environment:
 *   DCL1_CYCLES / DCL1_WARMUP - simulation length per run
 *   DCL1_RUN_DIR=<dir>        - durable run directory shared by all
 *                               bench binaries: a cell simulated once
 *                               is read back, exactly, by the next
 *   DCL1_APPS=a,b,c           - restrict the app set (smoke runs)
 *   DCL1_JOBS=N               - parallel workers for prefetch()
 *                               (default: one per hardware thread)
 *   DCL1_JOBS_LOG=<file>      - per-job JSONL timing records
 *   DCL1_TIMELINE=<dir>       - one cycle-interval timeline JSONL per
 *                               prefetched cell (see src/stats/)
 *   DCL1_TIMELINE_INTERVAL=N  - cycles per timeline row
 */

#ifndef DCL1_BENCH_BENCH_COMMON_HH
#define DCL1_BENCH_BENCH_COMMON_HH

#include <map>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "exec/job_set.hh"
#include "workload/app_catalog.hh"

namespace dcl1::bench
{

/** Shared bench state: platform, simulation length, results. */
class Harness
{
  public:
    /**
     * @param title human title, e.g. "Figure 14"
     * @param what one-line description of what is reproduced
     */
    Harness(const std::string &title, const std::string &what);

    /**
     * Simulate every missing (design, app) cell of the grid — plus
     * each app's Baseline unless @p with_baseline is false — through
     * runJobSet (DCL1_JOBS workers, DCL1_RUN_DIR), so the subsequent
     * run()/speedup() calls that print the table are pure lookups.
     * Printed output does not depend on the worker count: results are
     * keyed, never ordered by completion. fatal()s with the job's
     * error when a cell fails.
     */
    void prefetch(const std::vector<core::DesignConfig> &designs,
                  const std::vector<workload::AppInfo> &apps,
                  bool with_baseline = true);

    /** Metrics of one simulation; a miss is prefetched alone. */
    const core::RunMetrics &run(const core::DesignConfig &design,
                                const workload::AppInfo &app);

    /** Baseline metrics for @p app. */
    const core::RunMetrics &
    baseline(const workload::AppInfo &app)
    {
        return run(core::baselineDesign(), app);
    }

    /** IPC speedup of @p design over baseline for @p app. */
    double speedup(const core::DesignConfig &design,
                   const workload::AppInfo &app);

    /** Apps honouring the DCL1_APPS filter. */
    std::vector<workload::AppInfo> apps(bool sensitive_only = false,
                                        bool insensitive_only = false);

    const core::SystemConfig &sys() const { return sys_; }
    const core::ExperimentOptions &opts() const { return opts_; }

  private:
    std::string resultKey(const core::DesignConfig &design,
                          const std::string &app) const;

    core::SystemConfig sys_;
    core::ExperimentOptions opts_;
    std::map<std::string, core::RunMetrics> results_;
};

/**
 * Run a prepared JobSet on the parallel engine (DCL1_JOBS workers,
 * optional DCL1_JOBS_LOG JSONL records, DCL1_RUN_DIR) and return the
 * per-job results in job order. Benches whose grids fall outside the
 * Harness (custom platforms, modified SystemConfig fields) use this
 * directly; failed jobs are returned as-is with ok == false.
 */
std::vector<exec::JobResult> runJobSet(const exec::JobSet &set);

/**
 * Destination for a `BENCH_*.json` result file: @p filename placed
 * under DCL1_BENCH_DIR (created on demand) when set, else the working
 * directory. Every bench that emits a BENCH artifact must build its
 * path here and publish through exec::AtomicFileWriter — never a raw
 * path into the cwd — so CI can collect all artifacts from one
 * directory.
 */
std::string benchOutputPath(const std::string &filename);

/**
 * Machine fingerprint as one JSON object: CPU model (from
 * /proc/cpuinfo), hardware thread count, compiler version, and
 * whether DCL1_CHECK invariant checking is compiled in. perfbench
 * embeds it in every run's detail line, and tools/perf_trajectory.py
 * records it per row, so numbers from different machines or build
 * flavors can be told apart.
 */
std::string machineFingerprintJson();

/// @name Table formatting helpers
/// @{

/** Print a section header. */
void header(const std::string &title);

/** Print a row label followed by a series of values. */
void row(const std::string &label, const std::vector<double> &values,
         const char *fmt = "%8.3f");

/** Print a column-header row. */
void columns(const std::string &label,
             const std::vector<std::string> &names);

/// @}

} // namespace dcl1::bench

#endif // DCL1_BENCH_BENCH_COMMON_HH
