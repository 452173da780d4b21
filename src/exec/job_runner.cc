#include "exec/job_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/env.hh"
#include "common/log.hh"
#include "exec/crash_record.hh"
#include "exec/interrupt.hh"
#include "exec/run_manifest.hh"

namespace dcl1::exec
{

namespace
{

// Host-side timing of the execution engine, never of simulated
// behavior; audited exception to the simulation no-wallclock rule.
using HostClock = std::chrono::steady_clock; // lint: wallclock-ok

double
msSince(HostClock::time_point start)
{
    return std::chrono::duration<double, std::milli>(HostClock::now() -
                                                     start)
        .count();
}

/** True when @p a and @p b name the same file (which may not exist). */
bool
samePath(const std::string &a, const std::string &b)
{
    namespace fs = std::filesystem;
    std::error_code ec_a, ec_b;
    const fs::path ca = fs::weakly_canonical(a, ec_a);
    const fs::path cb = fs::weakly_canonical(b, ec_b);
    return ec_a || ec_b ? a == b : ca == cb;
}

} // anonymous namespace

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Ok:
        return "none";
      case Outcome::SimBug:
        return "sim-bug";
      case Outcome::ConfigError:
        return "config-error";
      case Outcome::WorkerException:
        return "worker-exception";
      case Outcome::Skipped:
        return "skipped";
      case Outcome::Deferred:
        return "deferred";
    }
    return "unknown";
}

unsigned
ExecOptions::hardwareConcurrency()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ExecOptions
ExecOptions::fromEnv()
{
    ExecOptions opts;
    opts.jobs = static_cast<unsigned>(
        envIntOr("DCL1_JOBS", 0, /*min_value=*/0, kMaxJobs));
    opts.crashDir = envStrOr("DCL1_CRASH_DIR", opts.crashDir);
    opts.jsonlPath = envStrOr("DCL1_JOBS_LOG", opts.jsonlPath);
    opts.profile = envIsSet("DCL1_PROF");
    return opts;
}

JobRunner::JobRunner(ExecOptions opts) : opts_(std::move(opts))
{
    if (!opts_.jsonlPath.empty())
        sinks_.add(&jsonl_.emplace(opts_.jsonlPath));
}

void
JobRunner::addSink(ResultSink *sink)
{
    sinks_.add(sink);
}

void
JobRunner::attachManifest(RunManifest *manifest, bool claim_cells)
{
    // The per-job log has its own record layout: interleaved with the
    // WAL, its lines read back as unparsable records on resume.
    if (manifest && !opts_.jsonlPath.empty() &&
        samePath(opts_.jsonlPath, manifest->walPath()))
        fatal("per-job JSONL log '%s' is the write-ahead log of run "
              "directory '%s'; write it to another file",
              opts_.jsonlPath.c_str(), manifest->dir().c_str());
    manifest_ = manifest;
    claimCells_ = manifest && claim_cells;
}

unsigned
JobRunner::resolveWorkers(std::size_t num_jobs) const
{
    const unsigned requested =
        opts_.jobs == 0 ? ExecOptions::hardwareConcurrency() : opts_.jobs;
    const unsigned cap =
        static_cast<unsigned>(std::min<std::size_t>(num_jobs, 4096));
    return std::max(1u, std::min(requested, std::max(1u, cap)));
}

std::vector<JobResult>
JobRunner::run(const std::vector<JobSpec> &specs)
{
    const std::size_t n = specs.size();
    const unsigned workers = resolveWorkers(n);

    // Every result starts Skipped, which a job the pool never reaches
    // (the batch was interrupted first) keeps.
    std::vector<JobResult> results(n);
    for (std::size_t i = 0; i < n; ++i) {
        results[i].index = i;
        results[i].label = specs[i].label;
        results[i].key = specs[i].key;
    }

    const HostClock::time_point batch_start = HostClock::now();
    sinks_.runStart(n, workers);

    // Resume prefill: jobs whose key already carries a record (the
    // manifest holds only ok and quarantined ones) are satisfied from
    // it without simulating. Runs in index order on the calling
    // thread, so resumed output is deterministic. Every other job
    // joins the queue, in index order.
    std::vector<std::size_t> queue;
    queue.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const JobRecord *rec = manifest_ && !specs[i].key.empty()
                                   ? manifest_->find(specs[i].key)
                                   : nullptr;
        if (!rec) {
            queue.push_back(i);
            continue;
        }
        static_cast<JobRecord &>(results[i]) = *rec;
        results[i].resumed = true;
        sinks_.jobDone(results[i]);
    }

    const std::string crash_dir =
        !opts_.crashDir.empty()
            ? opts_.crashDir
            : (manifest_ ? manifest_->crashDir() : std::string());

    // Runs one job exactly once, with fault isolation; the only writer
    // of results[index], so workers never touch the same element.
    auto execute = [&](std::size_t index, unsigned worker) {
        const JobSpec &spec = specs[index];
        JobResult &r = results[index];
        r.worker = worker;

        // Fleet worker: only the process that claims a cell runs it.
        // A cell claimed elsewhere is deferred, not failed — its
        // claimant publishes it, or the merge run does if it died.
        if (claimCells_ && !spec.key.empty() &&
            !manifest_->claim(spec.key)) {
            r.outcome = Outcome::Deferred;
            sinks_.jobDone(r);
            return;
        }

        sinks_.jobStart(index, spec.label, worker);
        const HostClock::time_point job_start = HostClock::now();

        JobContext ctx(index);
        std::unique_ptr<prof::Profiler> profiler;
        if (opts_.profile)
            profiler = std::make_unique<prof::Profiler>();
        try {
            prof::TlsGuard prof_guard(profiler.get());
            SimErrorTrap trap;
            r.metrics = spec.fn(ctx);
            r.outcome = Outcome::Ok;
        } catch (const SimAbort &e) {
            r.error = e.what();
            // Deterministic: the simulator is a pure function of its
            // configuration, so running it again cannot help.
            r.outcome = e.isPanic ? Outcome::SimBug : Outcome::ConfigError;
        } catch (const std::exception &e) {
            r.error = e.what();
            r.outcome = Outcome::WorkerException;
        } catch (...) {
            r.error = "unknown exception";
            r.outcome = Outcome::WorkerException;
        }
        r.timeline = ctx.timelinePath();
        if (profiler) {
            r.prof = profiler->report();
            r.prof.wallNs = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    HostClock::now() - job_start)
                    .count());
        }
        r.wallMs = msSince(job_start);

        if (!r.ok() && !crash_dir.empty())
            writeCrashRecord(crash_dir, r, ctx.crashContext());

        // Internally synchronized; a worker exception leaves no
        // record, so the next --resume (or fleet merge) runs it again.
        if (manifest_)
            manifest_->append(r);

        sinks_.jobDone(r);
    };

    // One shared cursor over the queue: each job is taken by exactly
    // one worker. Worker 0 is the calling thread, so a single worker
    // spawns no thread and runs the queue in index order.
    std::atomic<std::size_t> next{0};
    auto worker_loop = [&](unsigned w) {
        // Cooperative SIGINT drain: the in-flight job finished (or
        // never started); stop pulling new ones.
        while (!interruptRequested()) {
            const std::size_t k = next.fetch_add(1);
            if (k >= queue.size())
                return;
            execute(queue[k], w);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned w = 1; w < workers; ++w)
        threads.emplace_back(worker_loop, w);
    worker_loop(0);
    for (std::thread &t : threads)
        t.join();
    const bool interrupted = interruptRequested();

    RunSummary summary;
    summary.totalJobs = n;
    summary.workers = workers;
    summary.interrupted = interrupted;
    summary.wallMs = msSince(batch_start);
    std::vector<std::size_t> by_time(n);
    for (std::size_t i = 0; i < n; ++i) {
        by_time[i] = i;
        const JobResult &r = results[i];
        summary.cpuMs += r.wallMs;
        if (r.outcome == Outcome::Skipped) {
            ++summary.skippedJobs;
        } else if (r.outcome == Outcome::Deferred) {
            ++summary.deferredJobs;
        } else {
            if (r.resumed)
                ++summary.resumedJobs;
            if (!r.ok())
                ++summary.failedJobs;
            if (r.quarantined())
                ++summary.quarantinedJobs;
        }
    }
    summary.utilization =
        summary.wallMs > 0.0
            ? summary.cpuMs / (summary.wallMs * double(workers))
            : 0.0;
    std::sort(by_time.begin(), by_time.end(),
              [&](std::size_t a, std::size_t b) {
                  return results[a].wallMs > results[b].wallMs;
              });
    by_time.resize(std::min<std::size_t>(n, 5));
    summary.slowest = std::move(by_time);

    // A worker pass is one of several writers of the run directory;
    // the merge run that follows the workers finalizes it.
    if (manifest_ && !claimCells_)
        manifest_->finalize(interrupted ? "interrupted" : "complete");

    sinks_.runEnd(summary, results);
    return results;
}

} // namespace dcl1::exec
