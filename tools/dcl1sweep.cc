/**
 * @file
 * dcl1sweep — parallel grid runner emitting CSV for external
 * analysis/plotting.
 *
 *   dcl1sweep --designs=Baseline,Pr40,Sh40+C10+Boost \
 *             --apps=T-AlexNet,C-BFS --out=results.csv --jobs=8
 *   dcl1sweep --run-dir=runs/main --out=results.csv   # durable
 *   dcl1sweep --resume=runs/main  --out=results.csv   # continue it
 *
 * Omitting --apps sweeps the whole 28-app catalog; omitting --designs
 * sweeps the paper's main five. Columns: design, app, ipc, speedup,
 * l1_missrate, repl_ratio, avg_replicas, read_rtt, noc1_flits,
 * noc2_flits, dram_reads.
 *
 * The grid runs on the src/exec engine: independent cells execute
 * concurrently (--jobs=N or DCL1_JOBS; default one worker per
 * hardware thread), each app's Baseline run is simulated once and
 * reused as the speedup denominator (and as the Baseline row when
 * Baseline is listed in --designs), and rows are written in grid
 * order after the batch — CSV output is byte-identical for any
 * --jobs value, and (via the run manifest's "%.17g" metric
 * round-trip) for any interrupt/resume split of the batch.
 *
 * Failures follow the retry-with-quarantine policy: a cell that
 * exceeds --budget retries up to --retries times with a doubling
 * budget; a panic/fatal inside the model is deterministic and is
 * quarantined immediately with a structured crash record under
 * <run-dir>/crash/ (or --crash-dir). The sweep always completes with
 * partial results; see --help for the exit-code contract. SIGINT
 * drains in-flight cells, finalizes the manifest, and exits
 * resumable. --jsonl=FILE (or DCL1_JOBS_LOG) appends per-job wall
 * time and outcome records.
 *
 * --timeline-dir[=DIR] writes one cycle-interval timeline JSONL per
 * cell (default DIR: <run-dir>/timeline, or ./timeline without a run
 * directory); --timeline-interval=N sets the row cadence. Each job's
 * timeline path is surfaced in the end-of-run report and recorded in
 * jobs.jsonl, so a resumed run can find the partial timelines of
 * cells it skips.
 *
 * --worker turns the process into a *fleet worker*: any number of
 * workers (local or remote, sharing the directory over a common
 * filesystem) split one run directory's cells through write-once
 * claim files (RunManifest::claim). A worker makes one pass over the
 * grid, runs each cell it claims first, and exits. Workers write no
 * CSV and do not finalize the manifest — a final non-worker
 * `--resume=DIR --out=FILE` run (or tools/dcl1fleet) merges, and in
 * doing so simulates any cell a dead worker claimed but never
 * recorded.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "common/env.hh"
#include "common/log.hh"
#include "core/experiment.hh"
#include "exec/exit_codes.hh"
#include "exec/interrupt.hh"
#include "exec/job_runner.hh"
#include "exec/job_set.hh"
#include "exec/run_manifest.hh"
#include "workload/app_catalog.hh"

using namespace dcl1;

namespace
{

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::string
joinCsv(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &n : names) {
        if (!out.empty())
            out += ',';
        out += n;
    }
    return out;
}

/**
 * Deterministic interrupt injection for the kill-and-resume tests and
 * the CI smoke job: raises the same flag a real SIGINT would, after N
 * freshly simulated jobs have completed.
 */
class InterruptAfterSink : public exec::ResultSink
{
  public:
    explicit InterruptAfterSink(std::size_t after) : after_(after) {}

    void
    onJobDone(const exec::JobResult &result) override
    {
        if (result.resumed || result.skipped || result.deferred)
            return;
        if (++done_ >= after_)
            exec::requestInterrupt();
    }

  private:
    std::size_t after_;
    std::size_t done_ = 0;
};

void
printHelp()
{
    std::printf(
        "dcl1sweep — parallel (design, app) grid runner -> CSV\n"
        "\n"
        "  --designs=A,B,..   designs (default: the paper's main 5)\n"
        "  --apps=A,B,..      catalog apps (default: all 28)\n"
        "  --out=FILE         CSV output ('-' = stdout; files are\n"
        "                     published atomically via tmp+rename)\n"
        "  --jobs=N           worker threads (DCL1_JOBS; 0 = #cores)\n"
        "  --profile          host phase profiling (DCL1_PROF): "
        "per-cell\n"
        "                     trees in --jsonl records, aggregate "
        "phase\n"
        "                     shares on stderr; CSV is unchanged\n"
        "  --budget=N         per-cell simulated-cycle watchdog\n"
        "                     (DCL1_JOB_BUDGET)\n"
        "  --retries=N        retries for retryable failures, with a\n"
        "                     doubling budget on timeouts (DCL1_RETRIES;"
        "\n"
        "                     default 2)\n"
        "  --run-dir=DIR      durable run directory (DCL1_RUN_DIR):\n"
        "                     manifest + per-cell write-ahead log +\n"
        "                     crash records; safe to re-run/resume\n"
        "  --resume=DIR       like --run-dir, but requires DIR to hold\n"
        "                     an existing manifest; completed cells are\n"
        "                     skipped and the CSV comes out identical\n"
        "                     to an uninterrupted run\n"
        "  --crash-dir=DIR    crash records for failed cells\n"
        "                     (DCL1_CRASH_DIR; default <run-dir>/crash)\n"
        "  --jsonl=FILE       append per-job JSON records "
        "(DCL1_JOBS_LOG)\n"
        "  --timeline-dir[=DIR]  one timeline JSONL per cell (default\n"
        "                     <run-dir>/timeline or ./timeline)\n"
        "  --timeline-interval=N  cycles per timeline row\n"
        "                     (DCL1_TIMELINE_INTERVAL)\n"
        "  --interrupt-after=N  testing: inject SIGINT after N cells\n"
        "\n"
        "fleet mode (multi-process; see tools/dcl1fleet):\n"
        "  --worker           one pass over --run-dir shared with other\n"
        "                     worker processes: run each cell this\n"
        "                     process claims first; write no CSV (merge\n"
        "                     with a final --resume run, which also runs\n"
        "                     cells a dead worker claimed)\n"
        "\n"
        "%s\n",
        exec::kExitCodeContract);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> design_names = {
        "Baseline", "Pr40", "Sh40", "Sh40+C10", "Sh40+C10+Boost"};
    std::vector<std::string> app_names;
    std::string out_path = "-";
    std::string run_dir;
    bool resume_only = false;
    std::size_t interrupt_after = 0;
    bool timeline_requested = false;
    std::string timeline_dir;
    Cycle timeline_interval = 0;
    bool worker_mode = false;
    exec::ExecOptions eopts = exec::ExecOptions::fromEnv();
    run_dir = envStrOr("DCL1_RUN_DIR", run_dir);

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--designs=", 0) == 0)
            design_names = splitCsv(a.substr(10));
        else if (a.rfind("--apps=", 0) == 0)
            app_names = splitCsv(a.substr(7));
        else if (a.rfind("--out=", 0) == 0)
            out_path = a.substr(6);
        else if (a.rfind("--jobs=", 0) == 0)
            eopts.jobs = static_cast<unsigned>(parseEnvInt(
                "--jobs", a.substr(7).c_str(), 0, 4096));
        else if (a.rfind("--budget=", 0) == 0)
            eopts.cycleBudget = static_cast<Cycle>(parseEnvInt(
                "--budget", a.substr(9).c_str(), 1,
                std::numeric_limits<std::int64_t>::max()));
        else if (a.rfind("--retries=", 0) == 0)
            eopts.maxRetries = static_cast<unsigned>(parseEnvInt(
                "--retries", a.substr(10).c_str(), 0, 100));
        else if (a.rfind("--run-dir=", 0) == 0)
            run_dir = a.substr(10);
        else if (a.rfind("--resume=", 0) == 0) {
            run_dir = a.substr(9);
            resume_only = true;
        } else if (a.rfind("--crash-dir=", 0) == 0)
            eopts.crashDir = a.substr(12);
        else if (a.rfind("--jsonl=", 0) == 0)
            eopts.jsonlPath = a.substr(8);
        else if (a == "--timeline-dir")
            timeline_requested = true;
        else if (a.rfind("--timeline-dir=", 0) == 0) {
            timeline_dir = a.substr(15);
            timeline_requested = true;
        } else if (a.rfind("--timeline-interval=", 0) == 0)
            timeline_interval = static_cast<Cycle>(parseEnvInt(
                "--timeline-interval", a.substr(20).c_str(), 1,
                std::numeric_limits<std::int64_t>::max()));
        else if (a.rfind("--interrupt-after=", 0) == 0)
            interrupt_after = static_cast<std::size_t>(parseEnvInt(
                "--interrupt-after", a.substr(18).c_str(), 1,
                std::numeric_limits<std::int64_t>::max()));
        else if (a == "--profile")
            eopts.profile = true;
        else if (a == "--worker")
            worker_mode = true;
        else if (a == "--help" || a == "-h") {
            printHelp();
            return exec::kExitOk;
        } else
            fatal("unknown option '%s' (--help lists them)", a.c_str());
    }
    if (worker_mode && run_dir.empty())
        fatal("--worker requires --run-dir=DIR (or --resume=DIR): "
              "fleet workers share cells through a durable run "
              "directory");
    if (app_names.empty())
        for (const auto &app : workload::appCatalog())
            app_names.push_back(app.params.name);

    core::SystemConfig sys;
    const auto opts = core::ExperimentOptions::fromEnv();

    // Declare the grid. Memoization makes the per-app Baseline run and
    // a "Baseline" entry in --designs the same job.
    exec::JobSet set;
    if (timeline_requested) {
        if (timeline_dir.empty())
            timeline_dir =
                run_dir.empty() ? "timeline" : run_dir + "/timeline";
        set.setTimelineDir(timeline_dir, timeline_interval);
    }
    struct Row
    {
        std::size_t jobIndex;
        std::size_t baseIndex;
        std::string design;
        std::string app;
    };
    std::vector<Row> rows;
    for (const auto &app_name : app_names) {
        const auto &app = workload::appByName(app_name);
        const std::size_t base_index = set.addCell(
            sys, core::baselineDesign(), app.params, opts);
        for (const auto &dn : design_names) {
            const auto design = core::designByName(dn);
            const std::size_t index =
                set.addCell(sys, design, app.params, opts);
            rows.push_back({index, base_index, dn, app_name});
        }
    }

    // Durable-run identity: everything that determines the grid and
    // its results. Runtime knobs (--jobs, --budget, --retries) are
    // deliberately absent — resuming with a larger budget to recover
    // timed-out cells is the point of the retry policy.
    std::unique_ptr<exec::RunManifest> manifest;
    if (!run_dir.empty()) {
        const std::string config = csprintf(
            "dcl1sweep designs=%s apps=%s cycles=%llu/%llu "
            "platform=[%s] seed=%llu",
            joinCsv(design_names).c_str(), joinCsv(app_names).c_str(),
            static_cast<unsigned long long>(opts.measureCycles),
            static_cast<unsigned long long>(opts.warmupCycles),
            sys.summary().c_str(),
            static_cast<unsigned long long>(sys.seed));
        if (resume_only && !std::ifstream(run_dir + "/manifest.json"))
            fatal("--resume=%s: no manifest.json there — start the "
                  "batch with --run-dir=%s first",
                  run_dir.c_str(), run_dir.c_str());
        manifest = exec::RunManifest::openOrCreate(run_dir, config);
        if (manifest->completedCount() > 0)
            std::fprintf(stderr,
                         "[sweep] resuming '%s': %zu completed "
                         "record(s) on file\n",
                         run_dir.c_str(), manifest->completedCount());
    }

    exec::installSignalHandlers();

    exec::JobRunner runner(eopts);
    if (manifest)
        runner.attachManifest(manifest.get(), /*claim_cells=*/worker_mode);
    exec::ProgressSink progress;
    if (eopts.progress)
        runner.addSink(&progress);
    std::unique_ptr<exec::JsonlSink> jsonl;
    if (!eopts.jsonlPath.empty()) {
        jsonl = std::make_unique<exec::JsonlSink>(eopts.jsonlPath);
        runner.addSink(jsonl.get());
    }
    std::unique_ptr<InterruptAfterSink> injector;
    if (interrupt_after > 0) {
        injector = std::make_unique<InterruptAfterSink>(interrupt_after);
        runner.addSink(injector.get());
    }

    const std::vector<exec::JobResult> results = runner.run(set.specs());

    // Interrupted: no CSV — a partial file that looks complete is the
    // exact failure mode the durable layer exists to prevent.
    bool interrupted = false;
    for (const exec::JobResult &r : results)
        interrupted = interrupted || r.skipped;
    if (exec::interruptRequested())
        interrupted = true;
    if (interrupted) {
        std::fprintf(stderr,
                     "[sweep] interrupted; %s\n",
                     run_dir.empty()
                         ? "no run directory, progress was not saved "
                           "(use --run-dir=DIR)"
                         : csprintf("resume with --resume=%s",
                                    run_dir.c_str())
                               .c_str());
        return exec::kExitResumable;
    }

    if (worker_mode) {
        // Workers publish to the WAL only; the merge run writes the
        // CSV. The exit code answers for the cells this pass ran.
        std::size_t ran = 0, deferred = 0, failed = 0, quarantined = 0;
        for (const exec::JobResult &r : results) {
            deferred += r.deferred ? 1 : 0;
            if (r.deferred || r.resumed)
                continue;
            ++ran;
            failed += r.ok ? 0 : 1;
            quarantined += r.quarantined ? 1 : 0;
        }
        std::fprintf(stderr,
                     "[sweep] worker pass done: %zu cell(s) run here, "
                     "%zu claimed by other workers; merge with "
                     "--resume=%s --out=FILE\n",
                     ran, deferred, run_dir.c_str());
        if (failed == 0)
            return exec::kExitOk;
        return failed == quarantined ? exec::kExitQuarantined
                                     : exec::kExitFailedCells;
    }

    // Emit rows in grid order: output is independent of completion
    // order and therefore of --jobs and of any interrupt/resume split.
    std::ostringstream csv;
    std::size_t failed_rows = 0;
    csv << "design,app,ipc,speedup,l1_missrate,repl_ratio,avg_replicas,"
           "read_rtt,noc1_flits,noc2_flits,dram_reads\n";
    for (const Row &row : rows) {
        const exec::JobResult &r = results[row.jobIndex];
        const exec::JobResult &base = results[row.baseIndex];
        if (!r.ok || !base.ok) {
            ++failed_rows;
            std::fprintf(stderr, "[sweep] dropping row %s,%s: %s\n",
                         row.design.c_str(), row.app.c_str(),
                         (!r.ok ? r.error : base.error).c_str());
            continue;
        }
        const core::RunMetrics &rm = r.metrics;
        const double base_ipc = base.metrics.ipc;
        csv << row.design << ',' << row.app << ',' << rm.ipc << ','
            << (base_ipc > 0 ? rm.ipc / base_ipc : 0.0) << ','
            << rm.l1MissRate << ',' << rm.replicationRatio << ','
            << rm.avgReplicas << ',' << rm.avgReadLatency << ','
            << rm.noc1Flits << ',' << rm.noc2Flits << ','
            << rm.dramReads << '\n';
    }

    if (out_path == "-") {
        std::cout << csv.str();
    } else {
        // Atomic publish: the CSV either keeps its previous content or
        // gains the complete new one; a kill mid-write cannot leave a
        // plausible-looking truncated file.
        exec::AtomicFileWriter out(out_path);
        out.stream() << csv.str();
        out.commit();
    }

    // Quarantine report + exit-code contract (see exec/exit_codes.hh).
    std::size_t failed_cells = 0, quarantined_cells = 0;
    for (const exec::JobResult &r : results) {
        if (r.ok)
            continue;
        ++failed_cells;
        if (r.quarantined)
            ++quarantined_cells;
    }
    if (quarantined_cells > 0) {
        std::fprintf(stderr,
                     "[sweep] quarantined (deterministic failures; "
                     "retry/resume cannot recover them):\n");
        for (const exec::JobResult &r : results)
            if (r.quarantined)
                std::fprintf(stderr, "[sweep]   %-28s %s: %s\n",
                             r.label.c_str(),
                             exec::failureKindName(r.kind),
                             r.error.c_str());
    }
    if (failed_rows > 0)
        std::fprintf(stderr, "[sweep] %zu row(s) dropped\n",
                     failed_rows);
    if (failed_cells == 0)
        return exec::kExitOk;
    return failed_cells == quarantined_cells ? exec::kExitQuarantined
                                             : exec::kExitFailedCells;
}
