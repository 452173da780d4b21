/**
 * @file
 * dcl1run — command-line simulator driver.
 *
 * Run one (design, workload) simulation on the Table II platform and
 * print headline metrics; optionally dump the full statistics tree.
 *
 *   dcl1run --design=Sh40+C10+Boost --app=T-AlexNet
 *   dcl1run --design=Baseline --trace=my.trace --cycles=100000
 *   dcl1run --list-apps
 *   dcl1run --list-designs
 *
 * `dcl1run --help` lists every flag, declared once in flagsFor()
 * below. Numeric flags are parsed strictly: "2k" or "abc" is a
 * configuration error (exit 1), never a silently truncated run.
 *
 * The simulation executes as a single job of the src/exec engine: a
 * panic inside the model is reported as a failed run (exit 2) with
 * its message instead of aborting, and host wall time is measured.
 * On failure the job's crash context (configuration, last cycle,
 * queue depths, recent ledger events under DCL1_CHECK) lands in
 * --crash-dir, and `--replay-crash=<that file>` turns the forensic
 * record back into a live simulation.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>

#include "common/env.hh"
#include "common/flags.hh"
#include "common/log.hh"
#include "core/experiment.hh"
#include "core/gpu_system.hh"
#include "exec/atomic_file.hh"
#include "exec/crash_record.hh"
#include "exec/exit_codes.hh"
#include "exec/job_runner.hh"
#include "exec/result_sink.hh"
#include "stats/prof_trace.hh"
#include "workload/app_catalog.hh"
#include "workload/trace_file.hh"

using namespace dcl1;

namespace
{

struct Options
{
    std::string design = "Sh40+C10+Boost";
    std::string app = "T-AlexNet";
    std::string trace;
    std::string statsFile;
    std::string statsJsonFile;
    std::string timelineFile;
    Cycle timelineInterval = 0;    ///< 0 = DCL1_TIMELINE_INTERVAL
    std::string traceOutFile;
    std::uint32_t latencyEvery = 0; ///< 0 = attribution disabled
    Cycle cycles = 30000;
    Cycle warmup = 40000;
    std::uint32_t cores = 80;
    std::uint32_t slices = 32;
    std::uint32_t channels = 16;
    std::uint64_t seed = 1;
    std::string jsonlFile;
    std::string crashDir;
    std::string replayCrash;
    bool profile = false;
    std::string profileFile;
    bool drain = false;
    bool listApps = false;
    bool listDesigns = false;
};

/** Declares every flag of dcl1run, bound to @p o. */
FlagSet
flagsFor(Options &o)
{
    constexpr std::int64_t max = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t units = core::kMaxPlatformUnits;
    FlagSet f("dcl1run — run one (design, workload) simulation",
              exec::kExitCodeContract);
    f.add("--design=NAME", "Baseline | PrY | ShY | ShY+CZ[+Boost] | CDXBar*",
          o.design);
    f.add("--app=NAME", "application from the catalog (--list-apps)",
          o.app);
    // Two meanings, kept for compatibility: a trace to replay, or the
    // bare switch that exports a Chrome trace.
    f.add("--trace[=FILE]",
          "replay a trace file instead of a catalog app;\n"
          "bare: --trace-out=trace.json",
          [&o](const std::string *file) {
              if (file)
                  o.trace = *file;
              else
                  o.traceOutFile = "trace.json";
          });
    f.add("--trace-out=FILE",
          "Chrome trace export to FILE (implies --latency)",
          o.traceOutFile);
    f.add("--cycles=N", "measured cycles (default 30000)", o.cycles, 1, max);
    f.add("--warmup=N", "warmup cycles (default 40000)", o.warmup, 0, max);
    f.add("--cores=N", "cores (default 80)", o.cores, 1, units);
    f.add("--slices=N", "L2 slices (default 32)", o.slices, 1, units);
    f.add("--channels=N", "DRAM channels (default 16)", o.channels, 1,
          units);
    f.add("--seed=N", "workload seed", o.seed, 0, max);
    f.add("--stats=FILE", "full statistics tree ('-' = stdout; atomic)",
          o.statsFile);
    f.add("--stats-json[=F]",
          "statistics tree as JSON ('-'/bare = stdout)", o.statsJsonFile,
          "-");
    f.add("--timeline[=F]", "interval timeline JSONL (bare: timeline.jsonl)",
          o.timelineFile, "timeline.jsonl");
    f.add("--timeline-interval=N",
          "cycles per timeline row (DCL1_TIMELINE_INTERVAL)",
          o.timelineInterval, 1, max);
    f.add("--latency[=N]", "latency attribution, 1-in-N reads (bare: 1)",
          o.latencyEvery, 1, std::numeric_limits<std::uint32_t>::max(),
          "1");
    f.add("--drain", "drain in-flight traffic and report", o.drain);
    f.add("--profile[=FILE]",
          "host phase profile: table on stderr, JSON to FILE\n"
          "(DCL1_PROF)",
          [&o](const std::string *file) {
              o.profile = true;
              if (file)
                  o.profileFile = *file;
          });
    f.add("--jsonl=FILE", "append a JSON run record", o.jsonlFile);
    f.add("--crash-dir=DIR", "crash record on failure (DCL1_CRASH_DIR)",
          o.crashDir);
    f.add("--replay-crash=FILE", "re-run a recorded crash exactly",
          o.replayCrash);
    f.add("--list-apps", "print the application catalog", o.listApps);
    f.add("--list-designs", "print the design presets", o.listDesigns);
    return f;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!flagsFor(o).parse(argc, argv))
        return exec::kExitOk;

    if (!o.replayCrash.empty()) {
        // Forensic replay: rebuild exactly the cell the crash record
        // describes; explicit command-line overrides still win where
        // given *after* the flag (parse order), but the point is a
        // faithful re-run.
        const exec::CrashConfig crash =
            exec::loadCrashRecord(o.replayCrash);
        o.design = crash.design;
        o.app = crash.app;
        o.trace = crash.trace;
        o.cores = crash.cores;
        o.slices = crash.slices;
        o.channels = crash.channels;
        o.seed = crash.seed;
        o.cycles = crash.measure;
        o.warmup = crash.warmup;
        inform("replaying crash record '%s' (%s): %s",
               o.replayCrash.c_str(), crash.label.c_str(),
               crash.error.empty() ? "no recorded error"
                                   : crash.error.c_str());
    }

    if (o.listApps) {
        for (const auto &app : workload::appCatalog())
            std::printf("%-14s suite %s %s\n", app.params.name.c_str(),
                        app.params.suite.c_str(),
                        app.replicationSensitive
                            ? "(replication-sensitive)"
                            : "");
        return 0;
    }
    if (o.listDesigns) {
        std::printf("Baseline  PrY (Y in 80/40/20/10)  ShY  ShY+CZ  "
                    "ShY+CZ+Boost  CDXBar  CDXBar+2xNoC1  "
                    "CDXBar+2xNoC\n");
        return 0;
    }

    core::SystemConfig sys =
        core::SystemConfig::scaled(o.cores, o.slices, o.channels);
    sys.seed = o.seed;
    const core::DesignConfig design = core::designByName(o.design);

    std::unique_ptr<core::GpuSystem> gpu;
    std::unique_ptr<workload::TraceFileSource> trace_probe;
    if (!o.trace.empty()) {
        // Trace mode: wrap the trace as the workload via a synthetic
        // params shell (GpuSystem owns its own source for catalog
        // apps; for traces we simulate via the trace-driven app).
        workload::WorkloadParams shell;
        shell.name = o.trace;
        trace_probe = std::make_unique<workload::TraceFileSource>(
            o.trace, o.cores);
        shell.warpsPerCore = trace_probe->warpsPerCore(0);
        inform("trace '%s': %llu instructions, %u warps/core",
               o.trace.c_str(),
               static_cast<unsigned long long>(
                   trace_probe->instructionCount()),
               shell.warpsPerCore);
        gpu = std::make_unique<core::GpuSystem>(
            sys, design, shell,
            std::make_unique<workload::TraceFileSource>(o.trace,
                                                        o.cores));
    } else {
        const auto &app = workload::appByName(o.app);
        gpu = std::make_unique<core::GpuSystem>(sys, design, app.params);
    }

    // Telemetry, all opt-in: attribution first (trace slices come from
    // attributed requests), then the timeline, then the trace sink.
    if (!o.traceOutFile.empty() && o.latencyEvery == 0)
        o.latencyEvery = 1;
    if (o.latencyEvery > 0)
        gpu->enableLatency(o.latencyEvery);
    std::unique_ptr<exec::AppendLog> timeline_log;
    if (!o.timelineFile.empty()) {
        timeline_log = std::make_unique<exec::AppendLog>(o.timelineFile);
        exec::AppendLog *log = timeline_log.get();
        const Cycle interval = o.timelineInterval != 0
                                   ? o.timelineInterval
                                   : core::timelineIntervalFromEnv();
        gpu->enableTimeline(interval, [log](const std::string &row) {
            log->appendLine(row);
        });
    }
    std::unique_ptr<stats::TraceExport> trace_export;
    if (!o.traceOutFile.empty()) {
        trace_export = std::make_unique<stats::TraceExport>();
        gpu->enableTrace(trace_export.get());
    }

    // One job on the execution engine (inline on this thread, so
    // drain/stats below stay on the thread that built the machine):
    // faults become a reported failure, and the record carries host
    // wall time.
    exec::ExecOptions eopts;
    eopts.jobs = 1;
    eopts.crashDir = o.crashDir;
    if (eopts.crashDir.empty())
        eopts.crashDir = envStrOr("DCL1_CRASH_DIR", "");
    eopts.jsonlPath = o.jsonlFile;
    eopts.profile = o.profile || envIsSet("DCL1_PROF");
    exec::JobRunner runner(eopts);
    std::vector<exec::JobSpec> specs(1);
    specs[0].label =
        design.name + "/" + (o.trace.empty() ? o.app : o.trace);
    // Crash-diagnostic cooperation (see exec/crash_record.hh): the
    // replayable configuration up front, the machine state on death.
    const std::string crash_cfg = exec::crashConfigJson(
        design.name, o.app, o.trace, sys, o.cycles, o.warmup);
    specs[0].fn = [&](exec::JobContext &ctx) {
        ctx.setCrashContext(crash_cfg);
        try {
            gpu->run(o.cycles, o.warmup);
            gpu->finishTelemetry();
        } catch (...) {
            try {
                ctx.setCrashContext(crash_cfg + "," +
                                    exec::crashSnapshotJson(*gpu));
            } catch (...) {
            }
            throw;
        }
        return gpu->metrics();
    };
    const std::vector<exec::JobResult> results = runner.run(specs);
    if (!results[0].ok()) {
        std::fprintf(stderr, "dcl1run: simulation failed (%s): %s\n",
                     exec::outcomeName(results[0].outcome),
                     results[0].error.c_str());
        if (!eopts.crashDir.empty())
            std::fprintf(
                stderr,
                "dcl1run: crash record: %s/%s (replay with "
                "--replay-crash)\n",
                eopts.crashDir.c_str(),
                exec::crashRecordName(0, results[0].label).c_str());
        return exec::kExitRunFailed;
    }
    const core::RunMetrics &rm = results[0].metrics;

    std::printf("design     %s\n", design.name.c_str());
    std::printf("platform   %s\n", sys.summary().c_str());
    std::printf("workload   %s\n",
                o.trace.empty() ? o.app.c_str() : o.trace.c_str());
    std::printf("cycles     %llu (+%llu warmup)\n",
                static_cast<unsigned long long>(rm.cycles),
                static_cast<unsigned long long>(o.warmup));
    std::printf("IPC        %.3f\n", rm.ipc);
    std::printf("L1 miss    %.3f\n", rm.l1MissRate);
    std::printf("replratio  %.3f (avg replicas %.2f)\n",
                rm.replicationRatio, rm.avgReplicas);
    std::printf("read RTT   %.1f cycles\n", rm.avgReadLatency);
    std::printf("L2 miss    %.3f\n",
                rm.l2Accesses ? double(rm.l2Misses) / rm.l2Accesses
                              : 0.0);
    std::printf("DRAM       %llu reads, %llu writes\n",
                static_cast<unsigned long long>(rm.dramReads),
                static_cast<unsigned long long>(rm.dramWrites));
    if (gpu->latency()) {
        std::fflush(stdout);
        gpu->latency()->printBreakdown(std::cout);
        std::cout.flush();
    }
    // Host timing is observability, not simulation output: stderr, so
    // same-seed stdout stays byte-identical across runs.
    std::fprintf(stderr, "host time  %.1f ms\n", results[0].wallMs);
    if (results[0].prof.enabled) {
        results[0].prof.writeTable(stderr);
        if (!o.profileFile.empty()) {
            exec::AtomicFileWriter out(o.profileFile);
            out.stream() << results[0].prof.json() << "\n";
            out.commit();
            inform("profile written to %s", o.profileFile.c_str());
        }
    }

    if (o.drain) {
        const bool ok = gpu->drain();
        std::printf("drain      %s\n", ok ? "clean" : "TIMED OUT");
        if (!ok)
            return exec::kExitRunFailed;
    }

    if (!o.statsFile.empty()) {
        if (o.statsFile == "-") {
            gpu->dumpStats(std::cout);
        } else {
            exec::AtomicFileWriter out(o.statsFile);
            gpu->dumpStats(out.stream());
            out.commit();
            inform("stats written to %s", o.statsFile.c_str());
        }
    }
    if (!o.statsJsonFile.empty()) {
        if (o.statsJsonFile == "-") {
            gpu->dumpStatsJson(std::cout);
        } else {
            exec::AtomicFileWriter out(o.statsJsonFile);
            gpu->dumpStatsJson(out.stream());
            out.commit();
            inform("stats JSON written to %s", o.statsJsonFile.c_str());
        }
    }
    if (trace_export) {
        // Host phase slices ride along on their own track when both
        // --trace and --profile are on.
        if (results[0].prof.enabled)
            stats::exportHostPhases(*trace_export, results[0].prof);
        exec::AtomicFileWriter out(o.traceOutFile);
        trace_export->writeJson(out.stream());
        out.commit();
        inform("trace written to %s (%zu events, %zu dropped)",
               o.traceOutFile.c_str(), trace_export->events(),
               trace_export->dropped());
    }
    if (timeline_log)
        inform("timeline written to %s (%llu rows)",
               o.timelineFile.c_str(),
               static_cast<unsigned long long>(
                   gpu->timeline() ? gpu->timeline()->rows() : 0));
    return exec::kExitOk;
}
