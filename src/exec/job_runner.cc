#include "exec/job_runner.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <thread>

#include "common/env.hh"
#include "common/log.hh"
#include "common/mutex.hh"
#include "common/thread_annotations.hh"
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

/** One worker's mutex-guarded job queue. */
struct WorkerDeque
{
    Mutex mutex;
    std::deque<std::size_t> jobs DCL1_GUARDED_BY(mutex);

    void
    pushBack(std::size_t index) DCL1_EXCLUDES(mutex)
    {
        MutexLock lock(mutex);
        jobs.push_back(index);
    }

    bool
    popFront(std::size_t &out) DCL1_EXCLUDES(mutex)
    {
        MutexLock lock(mutex);
        if (jobs.empty())
            return false;
        out = jobs.front();
        jobs.pop_front();
        return true;
    }

    bool
    stealBack(std::size_t &out) DCL1_EXCLUDES(mutex)
    {
        MutexLock lock(mutex);
        if (jobs.empty())
            return false;
        out = jobs.back();
        jobs.pop_back();
        return true;
    }
};

} // anonymous namespace

const char *
failureKindName(FailureKind kind)
{
    switch (kind) {
      case FailureKind::None:
        return "none";
      case FailureKind::Timeout:
        return "timeout";
      case FailureKind::SimBug:
        return "sim-bug";
      case FailureKind::ConfigError:
        return "config-error";
      case FailureKind::WorkerException:
        return "worker-exception";
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
        envIntOr("DCL1_JOBS", 0, /*min_value=*/0, /*max_value=*/4096));
    opts.cycleBudget = static_cast<Cycle>(
        envIntOr("DCL1_JOB_BUDGET", 0, /*min_value=*/0,
                 std::numeric_limits<std::int64_t>::max()));
    opts.maxRetries = static_cast<unsigned>(
        envIntOr("DCL1_RETRIES", 2, /*min_value=*/0, /*max_value=*/100));
    opts.crashDir = envStrOr("DCL1_CRASH_DIR", opts.crashDir);
    opts.jsonlPath = envStrOr("DCL1_JOBS_LOG", opts.jsonlPath);
    opts.profile = envIsSet("DCL1_PROF");
    return opts;
}

void
JobContext::checkCycleBudget(Cycle simulated_cycles) const
{
    if (cycleBudget_ != 0 && simulated_cycles > cycleBudget_)
        throw CycleBudgetExceeded(csprintf(
            "job %zu exceeded its cycle budget (%llu > %llu simulated "
            "cycles)",
            index_, static_cast<unsigned long long>(simulated_cycles),
            static_cast<unsigned long long>(cycleBudget_)));
}

JobRunner::JobRunner(ExecOptions opts) : opts_(std::move(opts))
{
}

void
JobRunner::addSink(ResultSink *sink)
{
    sinks_.add(sink);
}

void
JobRunner::attachManifest(RunManifest *manifest, bool claim_cells)
{
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

    std::vector<JobResult> results(n);

    const HostClock::time_point batch_start = HostClock::now();
    sinks_.runStart(n, workers);

    // Resume prefill: jobs whose key already carries a terminal record
    // (ok or quarantined — retryable failures are never recorded) are
    // satisfied from the manifest without simulating. Runs in index
    // order on the calling thread, so resumed output is deterministic.
    std::vector<char> pending(n, 1);
    if (manifest_) {
        for (std::size_t i = 0; i < n; ++i) {
            if (specs[i].key.empty())
                continue;
            const JobRecord *rec = manifest_->find(specs[i].key);
            if (!rec || (!rec->ok && !rec->quarantined))
                continue;
            JobResult r;
            r.index = i;
            r.label = specs[i].label;
            r.key = specs[i].key;
            r.ok = rec->ok;
            r.error = rec->error;
            r.kind = rec->kind;
            r.attempts = rec->attempts;
            r.quarantined = rec->quarantined;
            r.resumed = true;
            r.metrics = rec->metrics;
            r.timelinePath = rec->timeline;
            results[i] = std::move(r);
            pending[i] = 0;
            sinks_.jobDone(results[i]);
        }
    }

    const std::string crash_dir =
        !opts_.crashDir.empty()
            ? opts_.crashDir
            : (manifest_ ? manifest_->crashDir() : std::string());

    // Executes one job with fault isolation and the retry-with-
    // quarantine policy; the only writer of results[index], so workers
    // never touch the same element.
    auto execute = [&](std::size_t index, unsigned worker) {
        const JobSpec &spec = specs[index];

        JobResult r;
        r.index = index;
        r.label = spec.label;
        r.key = spec.key;
        r.worker = worker;

        // Fleet worker: only the process that claims a cell runs it.
        // A cell claimed elsewhere is deferred, not failed — its
        // claimant publishes it, or the merge run does if it died.
        if (claimCells_ && !spec.key.empty() &&
            !manifest_->claim(spec.key)) {
            r.deferred = true;
            results[index] = std::move(r);
            sinks_.jobDone(results[index]);
            return;
        }

        sinks_.jobStart(index, spec.label, worker);
        const HostClock::time_point job_start = HostClock::now();

        std::string crash_context;
        unsigned timeouts = 0;
        for (unsigned attempt = 0;; ++attempt) {
            // Timeout escalation: a job that timed out k times re-runs
            // with the budget scaled by escalation^k, so a near-miss
            // gets headroom. Worker-exception retries keep the
            // configured budget — the budget was not the problem.
            Cycle budget = opts_.cycleBudget;
            if (budget != 0 && timeouts > 0 &&
                opts_.budgetEscalation > 1.0)
                budget = static_cast<Cycle>(
                    double(budget) *
                    std::pow(opts_.budgetEscalation, double(timeouts)));

            JobContext ctx(index, worker, budget);
            r.kind = FailureKind::None;
            r.error.clear();
            // Fresh profiler per attempt: a retried job reports the
            // profile of the attempt that produced its result, not a
            // blend of failed ones.
            std::unique_ptr<prof::Profiler> profiler;
            if (opts_.profile)
                profiler = std::make_unique<prof::Profiler>();
            try {
                prof::TlsGuard prof_guard(profiler.get());
                SimErrorTrap trap;
                r.metrics = spec.fn(ctx);
                r.ok = true;
            } catch (const CycleBudgetExceeded &e) {
                r.error = e.what();
                r.kind = FailureKind::Timeout;
            } catch (const SimAbort &e) {
                r.error = e.what();
                r.kind = e.isPanic ? FailureKind::SimBug
                                   : FailureKind::ConfigError;
            } catch (const std::exception &e) {
                r.error = e.what();
                r.kind = FailureKind::WorkerException;
            } catch (...) {
                r.error = "unknown exception";
                r.kind = FailureKind::WorkerException;
            }
            r.attempts = attempt + 1;
            if (profiler)
                r.prof = profiler->report();
            if (!ctx.crashContext().empty())
                crash_context = ctx.crashContext();
            if (!ctx.timelinePath().empty())
                r.timelinePath = ctx.timelinePath();
            if (r.ok)
                break;
            if (r.kind == FailureKind::SimBug ||
                r.kind == FailureKind::ConfigError) {
                // Deterministic: the simulator is a pure function of
                // its configuration, so a retry cannot change anything.
                r.quarantined = true;
                break;
            }
            if (attempt >= opts_.maxRetries)
                break;
            if (r.kind == FailureKind::Timeout)
                ++timeouts;
        }
        r.wallMs = msSince(job_start);
        if (r.prof.enabled)
            r.prof.wallNs = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    HostClock::now() - job_start)
                    .count());

        if (!r.ok && !crash_dir.empty())
            writeCrashRecord(crash_dir, r, crash_context);

        if (manifest_ && !spec.key.empty() && (r.ok || r.quarantined)) {
            JobRecord rec;
            rec.key = spec.key;
            rec.label = spec.label;
            rec.ok = r.ok;
            rec.quarantined = r.quarantined;
            rec.attempts = r.attempts;
            rec.kind = r.kind;
            rec.error = r.error;
            rec.metrics = r.metrics;
            rec.timeline = r.timelinePath;
            // RunManifest::append is internally synchronized.
            manifest_->append(rec);
        }

        results[index] = std::move(r);
        sinks_.jobDone(results[index]);
    };

    if (workers == 1) {
        // Inline serial mode: no threads, deterministic job order —
        // exactly the historical behavior of the serial tools.
        for (std::size_t i = 0; i < n; ++i) {
            if (interruptRequested())
                break;
            if (pending[i])
                execute(i, 0);
        }
    } else {
        std::vector<std::unique_ptr<WorkerDeque>> deques;
        for (unsigned w = 0; w < workers; ++w)
            deques.push_back(std::make_unique<WorkerDeque>());
        for (std::size_t i = 0; i < n; ++i)
            if (pending[i])
                deques[i % workers]->pushBack(i);

        auto worker_loop = [&](unsigned w) {
            std::size_t index = 0;
            for (;;) {
                // Cooperative SIGINT drain: the in-flight job finished
                // (or never started); stop pulling new ones.
                if (interruptRequested())
                    return;
                if (deques[w]->popFront(index)) {
                    execute(index, w);
                    continue;
                }
                bool stole = false;
                for (unsigned off = 1; off < workers && !stole; ++off)
                    stole = deques[(w + off) % workers]->stealBack(index);
                if (!stole)
                    return; // every deque empty: batch is finished
                execute(index, w);
            }
        };

        std::vector<std::thread> threads;
        for (unsigned w = 1; w < workers; ++w)
            threads.emplace_back(worker_loop, w);
        worker_loop(0); // the calling thread is worker 0
        for (std::thread &t : threads)
            t.join();
    }

    // Anything still pending after the pool drained was cut off by the
    // interrupt: mark it skipped so consumers can tell "never ran"
    // apart from "ran and failed".
    const bool interrupted = interruptRequested();
    for (std::size_t i = 0; i < n; ++i) {
        if (!pending[i] || results[i].attempts > 0 ||
            results[i].deferred)
            continue;
        results[i].index = i;
        results[i].label = specs[i].label;
        results[i].key = specs[i].key;
        results[i].skipped = true;
    }

    RunSummary summary;
    summary.totalJobs = n;
    summary.workers = workers;
    summary.interrupted = interrupted;
    summary.wallMs = msSince(batch_start);
    std::vector<std::size_t> by_time(n);
    for (std::size_t i = 0; i < n; ++i) {
        by_time[i] = i;
        summary.cpuMs += results[i].wallMs;
        if (results[i].skipped) {
            ++summary.skippedJobs;
            continue;
        }
        if (results[i].deferred) {
            ++summary.deferredJobs;
            continue;
        }
        if (results[i].resumed)
            ++summary.resumedJobs;
        if (!results[i].ok) {
            ++summary.failedJobs;
            if (results[i].quarantined)
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
