/**
 * @file
 * Serving-layer throughput benchmark: how fast does the host push
 * multi-tenant serve runs, and what does the simulated machine
 * deliver, at three offered-load points (light / moderate / heavy)?
 *
 * Emits BENCH_serving.json with, per load point, completed jobs and
 * simulated cycles per host second plus the simulated tail metrics —
 * a host-throughput baseline for the serving subsystem that CI and
 * perf work can diff across revisions.
 *
 * Environment: DCL1_SERVE_JOBS (offered jobs per point, default 40),
 * DCL1_SERVE_HORIZON (cycle cap, default 400000), and the engine's
 * variables (ExecOptions::fromEnv, e.g. DCL1_JOBS for worker threads).
 * Wall time comes from the execution engine's per-job measurement,
 * never from the model.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "common/env.hh"
#include "common/log.hh"
#include "core/experiment.hh"
#include "exec/atomic_file.hh"
#include "exec/job_runner.hh"
#include "serve/serve_sim.hh"
#include "stats/stats.hh"

using namespace dcl1;

int
main()
{
    const std::size_t numJobs = static_cast<std::size_t>(
        envIntOr("DCL1_SERVE_JOBS", 40, 1, 1'000'000));
    const Cycle horizon = static_cast<Cycle>(
        envIntOr("DCL1_SERVE_HORIZON", 400'000, 1000, 1'000'000'000));

    const core::SystemConfig sys;
    const core::DesignConfig design = core::clusteredDcl1(40, 10, true);
    const serve::JobMix mix =
        serve::mixFromAppList("T-AlexNet,C-BFS,P-2DCONV");
    const double lambdas[] = {0.2, 1.0, 4.0};

    std::vector<serve::ServeSummary> summaries(3);
    exec::JobRunner runner(exec::ExecOptions::fromEnv());
    std::vector<exec::JobSpec> specs(3);
    for (std::size_t i = 0; i < 3; ++i) {
        specs[i].label = "serve/" + stats::formatDouble(lambdas[i]);
        specs[i].fn = [&, i](exec::JobContext &) {
            serve::ServeOptions opts;
            opts.policy = serve::Policy::Fcfs;
            opts.lambdaJobsPerKcycle = lambdas[i];
            opts.numJobs = numJobs;
            opts.horizon = horizon;
            opts.seed = 1;
            serve::ServeSim sim(sys, design, mix, opts);
            summaries[i] = sim.run();
            return summaries[i].machine;
        };
    }
    const std::vector<exec::JobResult> results = runner.run(specs);
    for (const exec::JobResult &r : results)
        if (!r.ok())
            fatal("serve bench cell %s failed: %s", r.label.c_str(),
                  r.error.c_str());

    std::printf("Serving throughput (%s, %zu jobs/point, horizon %llu)\n",
                design.name.c_str(), numJobs,
                static_cast<unsigned long long>(horizon));
    std::printf("%7s %8s %8s %12s %12s %10s\n", "lambda", "done",
                "cens", "jobs/sec", "Mcycles/sec", "p99");

    exec::AtomicFileWriter out(
        bench::benchOutputPath("BENCH_serving.json"));
    out.stream() << "{\n  \"bench\": \"serving\",\n  \"design\": \""
                 << design.name << "\",\n  \"jobs_per_point\": "
                 << numJobs << ",\n  \"horizon\": " << horizon
                 << ",\n  \"points\": [\n";
    for (std::size_t i = 0; i < 3; ++i) {
        const serve::ServeSummary &s = summaries[i];
        const double wallSec = results[i].wallMs / 1000.0;
        const double jobsPerSec =
            wallSec > 0.0 ? double(s.completed) / wallSec : 0.0;
        const double cyclesPerSec =
            wallSec > 0.0 ? double(s.endCycle) / wallSec : 0.0;
        std::printf("%7s %8zu %8zu %12.1f %12.2f %10.0f\n",
                    stats::formatDouble(lambdas[i]).c_str(), s.completed,
                    s.censored, jobsPerSec, cyclesPerSec / 1e6,
                    s.p99Latency);
        out.stream() << "    {\"lambda\": "
                     << stats::formatDouble(lambdas[i])
                     << ", \"completed\": " << s.completed
                     << ", \"censored\": " << s.censored
                     << ", \"end_cycle\": " << s.endCycle
                     << ", \"jobs_per_sec\": "
                     << stats::formatDouble(jobsPerSec)
                     << ", \"sim_cycles_per_sec\": "
                     << stats::formatDouble(cyclesPerSec)
                     << ", \"p99_latency\": "
                     << stats::formatDouble(s.p99Latency)
                     << ", \"goodput_per_kcycle\": "
                     << stats::formatDouble(s.completedPerKcycle) << "}"
                     << (i + 1 < 3 ? "," : "") << "\n";
    }
    out.stream() << "  ]\n}\n";
    out.commit();
    inform("wrote %s", out.path().c_str());
    return 0;
}
