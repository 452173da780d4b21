/**
 * @file
 * Tests for the durable-run layer: crash-safe result-file writers,
 * WAL record round-trips, run-manifest identity checking, crash
 * records, and the kill-and-resume path that must reproduce an
 * uninterrupted run's output byte for byte.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/log.hh"
#include "core/design.hh"
#include "core/gpu_system.hh"
#include "exec/atomic_file.hh"
#include "exec/crash_record.hh"
#include "exec/exit_codes.hh"
#include "exec/interrupt.hh"
#include "exec/job_runner.hh"
#include "exec/job_set.hh"
#include "exec/result_sink.hh"
#include "exec/run_manifest.hh"
#include "workload/app_catalog.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::exec;

ExecOptions
workers(unsigned jobs)
{
    ExecOptions opts;
    opts.jobs = jobs;
    return opts;
}

/**
 * Per-test scratch directory, wiped of any durable-run files a
 * previous (possibly killed) test run left behind.
 */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() +
                            csprintf("dcl1-durable-%d-", int(getpid())) +
                            name;
    ensureDirectory(dir);
    std::remove((dir + "/manifest.json").c_str());
    std::remove(csprintf("%s/manifest.json.tmp.%d", dir.c_str(),
                         int(getpid()))
                    .c_str());
    std::remove((dir + "/jobs.jsonl").c_str());
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::string text;
    for (std::string line; std::getline(in, line);) {
        text += line;
        text += '\n';
    }
    return text;
}

bool
fileExists(const std::string &path)
{
    return bool(std::ifstream(path));
}

core::RunMetrics
awkwardMetrics()
{
    core::RunMetrics rm;
    rm.cycles = 123456789;
    rm.instructions = 987654321;
    rm.ipc = 1.0 / 3.0; // not representable in any finite decimal
    rm.l1Accesses = 11;
    rm.l1Misses = 7;
    rm.l1MissRate = 0.1;
    rm.replicationRatio = 2.5e-10;
    rm.avgReplicas = 1.0000000000000002; // one ulp above 1.0
    rm.maxL1PortUtil = 0.7654321987654321;
    rm.maxCoreReplyLinkUtil = 1e300;
    rm.maxMemReplyLinkUtil = 0.0;
    rm.avgReadLatency = 417.66666666666669;
    rm.noc1Flits = 1;
    rm.noc2Flits = 2;
    rm.l2Accesses = 3;
    rm.l2Misses = 4;
    rm.dramReads = 5;
    rm.dramWrites = 6;
    return rm;
}

TEST(Durable, RunMetricsJsonRoundTripsDoublesExactly)
{
    // %.17g must reproduce every IEEE double bit for bit; anything
    // less and a resumed CSV would differ from an uninterrupted one.
    const core::RunMetrics rm = awkwardMetrics();
    core::RunMetrics back;
    ASSERT_TRUE(parseRunMetricsJson(runMetricsJson(rm), back));
    EXPECT_EQ(back.cycles, rm.cycles);
    EXPECT_EQ(back.instructions, rm.instructions);
    EXPECT_EQ(back.ipc, rm.ipc);
    EXPECT_EQ(back.l1MissRate, rm.l1MissRate);
    EXPECT_EQ(back.replicationRatio, rm.replicationRatio);
    EXPECT_EQ(back.avgReplicas, rm.avgReplicas);
    EXPECT_EQ(back.maxL1PortUtil, rm.maxL1PortUtil);
    EXPECT_EQ(back.maxCoreReplyLinkUtil, rm.maxCoreReplyLinkUtil);
    EXPECT_EQ(back.maxMemReplyLinkUtil, rm.maxMemReplyLinkUtil);
    EXPECT_EQ(back.avgReadLatency, rm.avgReadLatency);
    EXPECT_EQ(back.dramWrites, rm.dramWrites);

    core::RunMetrics rejected;
    EXPECT_FALSE(parseRunMetricsJson("{\"cycles\":1}", rejected));
}

TEST(Durable, JobRecordRoundTripsThroughJsonl)
{
    JobRecord rec;
    rec.key = "design=A|app=\"quoted\"|seed=1"; // escaping required
    rec.label = "A/back\\slash";
    rec.outcome = Outcome::Ok;
    rec.metrics = awkwardMetrics();

    JobRecord back;
    ASSERT_TRUE(JobRecord::fromJsonLine(rec.toJsonLine(), back));
    EXPECT_EQ(back.key, rec.key);
    EXPECT_EQ(back.label, rec.label);
    EXPECT_TRUE(back.ok());
    EXPECT_FALSE(back.quarantined());
    EXPECT_EQ(back.outcome, Outcome::Ok);
    EXPECT_EQ(back.metrics.ipc, rec.metrics.ipc);

    JobRecord quar;
    quar.key = "k2";
    quar.label = "bad";
    quar.outcome = Outcome::SimBug;
    quar.error = "panic: q1 overflow\nat cycle 42";
    ASSERT_TRUE(JobRecord::fromJsonLine(quar.toJsonLine(), back));
    EXPECT_FALSE(back.ok());
    EXPECT_TRUE(back.quarantined());
    EXPECT_EQ(back.outcome, Outcome::SimBug);
    EXPECT_EQ(back.error, quar.error);

    // Malformed input never half-parses.
    EXPECT_FALSE(JobRecord::fromJsonLine("", back));
    EXPECT_FALSE(JobRecord::fromJsonLine("{\"key\":\"torn", back));
    EXPECT_FALSE(JobRecord::fromJsonLine(
        "{\"key\":\"k\",\"label\":\"l\",\"ok\":true,"
        "\"quarantined\":false,\"attempts\":1}", // ok but no metrics
        back));

    // Values that are not what their field's type requires.
    auto edit = [](std::string line, const std::string &from,
                   const std::string &to) {
        line.replace(line.find(from), from.size(), to);
        return line;
    };
    const std::string good = rec.toJsonLine();
    auto with = [&](const std::string &from, const std::string &to) {
        return edit(good, from, to);
    };
    for (const std::string &bad :
         {with("\"attempts\":1", "\"attempts\":-3"),
          with("\"attempts\":1", "\"attempts\":4294967296"),
          with("\"cycles\":123456789", "\"cycles\":12abc"),
          with("\"cycles\":123456789", "\"cycles\":1.5"),
          with("\"quarantined\":false", "\"quarantined\":nope"),
          with("\"ok\":true", "\"ok\":\"true\""),
          with("\"ok\":true", "\"ok\":true,\"ok\":true"), good + "x"})
        EXPECT_FALSE(JobRecord::fromJsonLine(bad, back)) << bad;
    // Flags that disagree with the kind, and outcomes the log never
    // holds, are not records the writer produces.
    const std::string q = quar.toJsonLine();
    for (const std::string &bad :
         {with("\"ok\":true", "\"ok\":false"),
          with("\"quarantined\":false", "\"quarantined\":true"),
          with("\"kind\":\"none\"", "\"kind\":\"sim-bug\""),
          edit(q, "\"quarantined\":true", "\"quarantined\":false"),
          edit(q, "\"kind\":\"sim-bug\"", "\"kind\":\"none\""),
          edit(q, "sim-bug", "worker-exception"),
          edit(q, "\"kind\":\"sim-bug\",", "")})
        EXPECT_FALSE(JobRecord::fromJsonLine(bad, back)) << bad;
    // Unknown members (e.g. fields later schemas dropped) are ignored.
    EXPECT_TRUE(JobRecord::fromJsonLine(
        with("\"attempts\"", "\"lost\":false,\"attempts\""), back));
}

TEST(Durable, AtomicWriterPublishesAllOrNothing)
{
    const std::string dir = freshDir("atomic");
    const std::string path = dir + "/out.csv";
    std::remove(path.c_str());

    {
        AtomicFileWriter w(path);
        w.stream() << "design,ipc\nA,1.5\n";
        EXPECT_FALSE(fileExists(path)); // nothing until commit
        w.commit();
    }
    EXPECT_EQ(readFile(path), "design,ipc\nA,1.5\n");
    EXPECT_FALSE(fileExists(
        csprintf("%s.tmp.%d", path.c_str(), int(getpid())))); // no debris

    {
        // Abandoned writer (simulates dying mid-batch): the old file
        // must survive untouched.
        AtomicFileWriter w(path);
        w.stream() << "half-writ";
    }
    EXPECT_EQ(readFile(path), "design,ipc\nA,1.5\n");

    {
        AtomicFileWriter w(path);
        w.stream() << "v2\n";
        w.commit();
    }
    EXPECT_EQ(readFile(path), "v2\n");
}

TEST(Durable, AppendLogExtendsAcrossReopens)
{
    const std::string dir = freshDir("append");
    const std::string path = dir + "/log.jsonl";
    std::remove(path.c_str());

    {
        AppendLog log(path);
        EXPECT_TRUE(log.appendLine("{\"a\":1}"));
        EXPECT_TRUE(log.appendLine("{\"b\":2}"));
    }
    {
        // A second run must append, never truncate: that is what makes
        // the WAL a write-ahead log.
        AppendLog log(path);
        EXPECT_TRUE(log.appendLine("{\"c\":3}"));
    }
    EXPECT_EQ(readFile(path), "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n");
}

TEST(Durable, ManifestRecordsAndReloadsCompletedJobs)
{
    const std::string dir = freshDir("manifest");

    auto m = RunManifest::openOrCreate(dir, "unit-test grid=2x2");
    EXPECT_EQ(m->completedCount(), 0u);
    EXPECT_EQ(m->crashDir(), dir + "/crash");

    JobRecord ok;
    ok.key = "cell-1";
    ok.label = "A/app1";
    ok.outcome = Outcome::Ok;
    ok.metrics = awkwardMetrics();
    m->append(ok);

    JobRecord quar;
    quar.key = "cell-2";
    quar.label = "B/app1";
    quar.outcome = Outcome::ConfigError;
    m->append(quar);

    JobRecord keyless; // keyless jobs are not durable; must be ignored
    keyless.label = "adhoc";
    keyless.outcome = Outcome::Ok;
    m->append(keyless);

    m->finalize("complete");
    m.reset();

    auto re = RunManifest::openOrCreate(dir, "unit-test grid=2x2");
    EXPECT_EQ(re->completedCount(), 2u);
    ASSERT_NE(re->find("cell-1"), nullptr);
    EXPECT_TRUE(re->find("cell-1")->ok());
    EXPECT_EQ(re->find("cell-1")->metrics.ipc, ok.metrics.ipc);
    ASSERT_NE(re->find("cell-2"), nullptr);
    EXPECT_TRUE(re->find("cell-2")->quarantined());
    EXPECT_EQ(re->find("cell-2")->outcome, Outcome::ConfigError);
    EXPECT_EQ(re->find("cell-3"), nullptr);

    const std::string manifest = readFile(dir + "/manifest.json");
    EXPECT_NE(manifest.find("\"status\":\"running\""),
              std::string::npos);
    EXPECT_NE(manifest.find("\"completed\":2"), std::string::npos);
}

TEST(Durable, ManifestToleratesTornWalTail)
{
    const std::string dir = freshDir("torn");
    {
        auto m = RunManifest::openOrCreate(dir, "torn-test");
        JobRecord rec;
        rec.key = "survivor";
        rec.label = "ok";
        rec.outcome = Outcome::Ok;
        m->append(rec);
        m->finalize("interrupted");
    }
    {
        // A hard kill mid-append leaves a torn final line; the reopen
        // must keep every earlier record and just re-run that job.
        std::ofstream out(dir + "/jobs.jsonl", std::ios::app);
        out << "{\"key\":\"torn-victim\",\"label\":\"ha";
    }
    auto re = RunManifest::openOrCreate(dir, "torn-test");
    EXPECT_EQ(re->completedCount(), 1u);
    EXPECT_NE(re->find("survivor"), nullptr);
    EXPECT_EQ(re->find("torn-victim"), nullptr);

    // A writer that does not end the torn line first puts the next
    // record on it. A record cut inside its metrics followed by a
    // whole record must not load as one cell whose metrics come from
    // both.
    const std::string merged_dir = freshDir("torn-merged");
    RunManifest::openOrCreate(merged_dir, "torn-test")
        ->finalize("interrupted");
    JobRecord cut;
    cut.key = "cut";
    cut.label = "a";
    cut.outcome = Outcome::Ok;
    cut.metrics.cycles = 1000;
    cut.metrics.instructions = 5000;
    JobRecord whole;
    whole.key = "appended";
    whole.label = "b";
    whole.outcome = Outcome::Ok;
    whole.metrics = awkwardMetrics();
    const std::string cut_after = "\"instructions\":50"; // of 5000
    const std::string cut_line = cut.toJsonLine();
    {
        std::ofstream out(merged_dir + "/jobs.jsonl", std::ios::app);
        out << cut_line.substr(0, cut_line.find(cut_after) +
                                      cut_after.size())
            << whole.toJsonLine() << "\n";
    }
    auto merged = RunManifest::openOrCreate(merged_dir, "torn-test");
    EXPECT_EQ(merged->completedCount(), 0u);
    EXPECT_EQ(merged->find("cut"), nullptr);
    EXPECT_EQ(merged->find("appended"), nullptr);
}

TEST(Durable, RecordAppendedAfterATornWalTailLoads)
{
    // A hard kill leaves a final line without its newline; the
    // resumed run's first record must start a line of its own.
    const std::string dir = freshDir("torn-append");
    RunManifest::openOrCreate(dir, "torn-test")->finalize("interrupted");
    {
        std::ofstream out(dir + "/jobs.jsonl", std::ios::app);
        out << "{\"key\":\"torn-victim\",\"label\":\"ha";
    }
    {
        auto m = RunManifest::openOrCreate(dir, "torn-test");
        JobRecord rec;
        rec.key = "appended";
        rec.label = "after the tear";
        rec.outcome = Outcome::Ok;
        rec.metrics = awkwardMetrics();
        m->append(rec);
        rec.key = "next";
        m->append(rec);
    }
    auto re = RunManifest::openOrCreate(dir, "torn-test");
    EXPECT_EQ(re->completedCount(), 2u);
    ASSERT_NE(re->find("appended"), nullptr);
    EXPECT_EQ(re->find("appended")->metrics.ipc, awkwardMetrics().ipc);
    EXPECT_NE(re->find("next"), nullptr);
    EXPECT_EQ(re->find("torn-victim"), nullptr);
    // One newline ends the tear; the records that follow add none.
    const std::string wal = readFile(dir + "/jobs.jsonl");
    EXPECT_EQ(wal.find("\n\n"), std::string::npos);
    EXPECT_EQ(wal.back(), '\n');
}

TEST(DurableDeathTest, ManifestRefusesForeignRunDirectory)
{
    const std::string dir = freshDir("mismatch");
    RunManifest::openOrCreate(dir, "sweep designs=A apps=x")
        ->finalize("interrupted");

    // Resuming with different grid options would silently mix
    // incompatible results into one complete-looking CSV.
    EXPECT_EXIT(RunManifest::openOrCreate(dir, "sweep designs=B apps=x"),
                ::testing::ExitedWithCode(1), "different batch");

    // Not a dcl1 manifest at all: the pinned incompatible-run-dir
    // code (6), so fleet launchers can tell "stop the whole fleet"
    // apart from one worker's bad flag (1).
    const std::string bogus = freshDir("bogus");
    {
        std::ofstream out(bogus + "/manifest.json");
        out << "not json at all\n";
    }
    EXPECT_EXIT(RunManifest::openOrCreate(bogus, "anything"),
                ::testing::ExitedWithCode(kExitIncompatibleRunDir),
                "unreadable manifest");

    // A manifest from an incompatible build signature (WAL schema /
    // DCL1_CHECK mode) exits the same way.
    const std::string old = freshDir("oldbuild");
    {
        std::ofstream out(old + "/manifest.json");
        out << "{\"signature\":\"wal-schema=0 check=0\","
               "\"config\":\"anything\",\"status\":\"complete\","
               "\"completed\":0}\n";
    }
    EXPECT_EXIT(RunManifest::openOrCreate(old, "anything"),
                ::testing::ExitedWithCode(kExitIncompatibleRunDir),
                "incompatible build");
}

TEST(Durable, CrashRecordRoundTripsReplayConfig)
{
    const std::string dir = freshDir("crash");

    JobResult result;
    result.index = 3;
    result.label = "Private-40/LeNet";
    result.outcome = Outcome::WorkerException;
    result.error = "std::bad_alloc";
    const std::string context =
        "\"design\":\"Private-40\",\"app\":\"LeNet\",\"cores\":40,"
        "\"slices\":16,\"channels\":8,\"seed\":7,\"measure\":2000,"
        "\"warmup\":500";
    writeCrashRecord(dir, result, context);

    // Labels contain '/', which must not become a path component.
    EXPECT_EQ(crashRecordName(3, "Private-40/LeNet"),
              "job003-Private-40_LeNet.json");
    const std::string path =
        dir + "/" + crashRecordName(result.index, result.label);
    ASSERT_TRUE(fileExists(path));

    const CrashConfig cfg = loadCrashRecord(path);
    EXPECT_EQ(cfg.design, "Private-40");
    EXPECT_EQ(cfg.app, "LeNet");
    EXPECT_TRUE(cfg.trace.empty());
    EXPECT_EQ(cfg.cores, 40u);
    EXPECT_EQ(cfg.slices, 16u);
    EXPECT_EQ(cfg.channels, 8u);
    EXPECT_EQ(cfg.seed, 7u);
    EXPECT_EQ(cfg.measure, 2000u);
    EXPECT_EQ(cfg.warmup, 500u);
    EXPECT_EQ(cfg.label, "Private-40/LeNet");
    EXPECT_EQ(cfg.error, result.error);

    // A record that carries the live machine state (queue depths and,
    // in DCL1_CHECK builds, the request-ledger tail) loads the same
    // way: only its top-level members are read.
    core::GpuSystem gpu(core::SystemConfig(),
                        core::designByName("Sh40+C10+Boost"),
                        workload::appByName("T-AlexNet").params);
    gpu.run(500, 0);
    result.index = 4;
    writeCrashRecord(dir, result, context + "," + crashSnapshotJson(gpu));
    const CrashConfig live =
        loadCrashRecord(dir + "/" + crashRecordName(4, result.label));
    EXPECT_EQ(live.design, "Private-40");
    EXPECT_EQ(live.app, "LeNet");
    EXPECT_EQ(live.warmup, 500u);
}

TEST(DurableDeathTest, ConfiglessCrashRecordCannotReplay)
{
    const std::string dir = freshDir("crash-bare");
    JobResult result;
    result.index = 0;
    result.label = "uncooperative";
    result.outcome = Outcome::WorkerException;
    writeCrashRecord(dir, result, ""); // job never set a crash context

    const std::string path =
        dir + "/" + crashRecordName(result.index, result.label);
    ASSERT_TRUE(fileExists(path));
    EXPECT_EXIT(loadCrashRecord(path), ::testing::ExitedWithCode(1),
                "no replayable config");
}

TEST(DurableDeathTest, CrashRecordNumbersAreStrict)
{
    // A replay of "8k" cores must not quietly simulate 8.
    const std::string dir = freshDir("crash-strict");
    JobResult result;
    result.label = "garbled";
    result.outcome = Outcome::SimBug;
    writeCrashRecord(dir, result,
                     "\"design\":\"Baseline\",\"app\":\"T-AlexNet\","
                     "\"cores\":8k");
    EXPECT_EXIT(loadCrashRecord(dir + "/" + crashRecordName(0, "garbled")),
                ::testing::ExitedWithCode(1),
                "expected ',' or '}' at offset [0-9]+");

    // A quoted number is a string, not a number.
    result.index = 1;
    writeCrashRecord(dir, result,
                     "\"design\":\"Baseline\",\"app\":\"T-AlexNet\","
                     "\"cores\":\"40\"");
    EXPECT_EXIT(loadCrashRecord(dir + "/" + crashRecordName(1, "garbled")),
                ::testing::ExitedWithCode(1),
                "field \"cores\": ");
}

TEST(DurableDeathTest, JsonlLogMayNotBeTheWal)
{
    // Per-job JSONL records interleaved with WAL records would read
    // back as torn lines on resume; refuse before anything is written.
    const std::string dir = freshDir("jsonl-wal");
    auto manifest = RunManifest::openOrCreate(dir, "jsonl-wal");
    ExecOptions opts = workers(1);
    opts.jsonlPath = dir + "/./jobs.jsonl";
    JobRunner runner(opts);
    EXPECT_EXIT(runner.attachManifest(manifest.get()),
                ::testing::ExitedWithCode(1), "write-ahead log");

    opts.jsonlPath = dir + "/timing.jsonl";
    JobRunner elsewhere(opts);
    elsewhere.attachManifest(manifest.get());
}

TEST(Durable, InterruptFlagIsCooperative)
{
    clearInterrupt();
    EXPECT_FALSE(interruptRequested());
    requestInterrupt();
    EXPECT_TRUE(interruptRequested());
    clearInterrupt();
    EXPECT_FALSE(interruptRequested());

    // A real SIGINT must only raise the flag, never kill the process.
    installSignalHandlers();
    std::raise(SIGINT);
    EXPECT_TRUE(interruptRequested());
    clearInterrupt();

    // SIGTERM — what fleet launchers send — drains the same way
    // instead of killing the worker mid-record.
    std::raise(SIGTERM);
    EXPECT_TRUE(interruptRequested());
    clearInterrupt();
}

/** Injects an interrupt after N fresh completions (deterministic
 *  stand-in for Ctrl-C at an exact point in the batch). */
class InterruptAfterSink : public ResultSink
{
  public:
    explicit InterruptAfterSink(std::size_t after) : after_(after) {}

    void
    onJobDone(const JobResult &result) override
    {
        if (result.resumed)
            return;
        if (++done_ >= after_)
            requestInterrupt();
    }

  private:
    std::size_t after_;
    std::size_t done_ = 0;
};

/** Captures the end-of-run summary for assertions. */
class SummarySink : public ResultSink
{
  public:
    RunSummary last;

    void
    onRunEnd(const RunSummary &summary,
             const std::vector<JobResult> &) override
    {
        last = summary;
    }
};

std::string
csvOf(const std::vector<JobResult> &results)
{
    // %.17g on purpose: byte-identity catches any round-trip loss in
    // the WAL, not just "close enough" agreement.
    std::string csv = "label,ipc,l1_miss_rate,avg_read_latency\n";
    for (const auto &r : results)
        csv += csprintf("%s,%.17g,%.17g,%.17g\n", r.label.c_str(),
                        r.metrics.ipc, r.metrics.l1MissRate,
                        r.metrics.avgReadLatency);
    return csv;
}

/**
 * A worker exception is the one failure a resume recovers: the job
 * leaves no WAL record, so the next run on the directory simulates it
 * and the run after that resumes it.
 */
TEST(Durable, WorkerExceptionIsRerunByResume)
{
    const std::string dir = freshDir("flaky");
    int calls = 0;
    std::vector<JobSpec> specs(1);
    specs[0].label = "flaky";
    specs[0].key = "flaky-cell";
    specs[0].fn = [&calls](JobContext &) {
        if (++calls == 1)
            throw std::runtime_error("transient");
        core::RunMetrics rm;
        rm.ipc = 1.5;
        return rm;
    };

    {
        auto manifest = RunManifest::openOrCreate(dir, "flaky");
        JobRunner runner(workers(1));
        runner.attachManifest(manifest.get());
        const auto results = runner.run(specs);
        EXPECT_FALSE(results[0].ok());
        EXPECT_FALSE(results[0].quarantined());
        EXPECT_EQ(results[0].outcome, Outcome::WorkerException);
        EXPECT_EQ(calls, 1);
        EXPECT_EQ(manifest->completedCount(), 0u);
    }
    {
        auto manifest = RunManifest::openOrCreate(dir, "flaky");
        EXPECT_EQ(manifest->find("flaky-cell"), nullptr);
        JobRunner runner(workers(1));
        runner.attachManifest(manifest.get());
        const auto results = runner.run(specs);
        EXPECT_TRUE(results[0].ok()) << results[0].error;
        EXPECT_FALSE(results[0].resumed);
        EXPECT_EQ(calls, 2);
    }
    {
        auto manifest = RunManifest::openOrCreate(dir, "flaky");
        JobRunner runner(workers(1));
        runner.attachManifest(manifest.get());
        const auto results = runner.run(specs);
        EXPECT_TRUE(results[0].ok());
        EXPECT_TRUE(results[0].resumed);
        EXPECT_EQ(results[0].metrics.ipc, 1.5);
        EXPECT_EQ(calls, 2);
    }
}

/**
 * The ISSUE-level contract: kill a 4-job sweep after 2 completions,
 * resume it, and the combined output is byte-identical to a run that
 * was never interrupted.
 */
TEST(Durable, InterruptedSweepResumesByteIdentically)
{
    const auto catalog = workload::appCatalog();
    ASSERT_GE(catalog.size(), 2u);
    core::ExperimentOptions eopts;
    eopts.measureCycles = 2000;
    eopts.warmupCycles = 500;

    exec::JobSet set;
    const core::SystemConfig sys;
    for (const auto &design :
         {core::baselineDesign(), core::privateDcl1(40)})
        for (std::size_t a = 0; a < 2; ++a)
            set.addCell(sys, design, catalog[a].params, eopts);
    ASSERT_EQ(set.size(), 4u);
    const std::string config = "test-sweep designs=2 apps=2";

    // Reference: the same batch, never interrupted.
    clearInterrupt();
    const std::string clean_dir = freshDir("resume-clean");
    std::string clean_csv;
    {
        auto manifest = RunManifest::openOrCreate(clean_dir, config);
        JobRunner runner(workers(1));
        runner.attachManifest(manifest.get());
        const auto results = runner.run(set.specs());
        for (const auto &r : results)
            ASSERT_TRUE(r.ok()) << r.label << ": " << r.error;
        clean_csv = csvOf(results);
    }

    // Interrupted: the injected Ctrl-C lands after two completions.
    const std::string dir = freshDir("resume-killed");
    {
        auto manifest = RunManifest::openOrCreate(dir, config);
        JobRunner runner(workers(1));
        runner.attachManifest(manifest.get());
        InterruptAfterSink interrupter(2);
        SummarySink summary;
        runner.addSink(&interrupter);
        runner.addSink(&summary);
        const auto results = runner.run(set.specs());

        EXPECT_TRUE(summary.last.interrupted);
        EXPECT_EQ(summary.last.skippedJobs, 2u);
        EXPECT_TRUE(results[0].ok());
        EXPECT_TRUE(results[1].ok());
        EXPECT_EQ(results[2].outcome, Outcome::Skipped);
        EXPECT_EQ(results[3].outcome, Outcome::Skipped);
        EXPECT_EQ(manifest->completedCount(), 2u);

        const std::string manifest_json =
            readFile(dir + "/manifest.json");
        EXPECT_NE(manifest_json.find("\"status\":\"interrupted\""),
                  std::string::npos);
    }

    // Resume: first two cells come from the WAL, the rest simulate.
    clearInterrupt();
    {
        auto manifest = RunManifest::openOrCreate(dir, config);
        EXPECT_EQ(manifest->completedCount(), 2u);
        JobRunner runner(workers(1));
        runner.attachManifest(manifest.get());
        SummarySink summary;
        runner.addSink(&summary);
        const auto results = runner.run(set.specs());

        EXPECT_TRUE(results[0].resumed);
        EXPECT_TRUE(results[1].resumed);
        EXPECT_FALSE(results[2].resumed);
        EXPECT_FALSE(results[3].resumed);
        for (const auto &r : results)
            ASSERT_TRUE(r.ok()) << r.label << ": " << r.error;
        EXPECT_EQ(summary.last.resumedJobs, 2u);
        EXPECT_FALSE(summary.last.interrupted);
        EXPECT_EQ(manifest->completedCount(), 4u);

        EXPECT_EQ(csvOf(results), clean_csv);

        const std::string manifest_json =
            readFile(dir + "/manifest.json");
        EXPECT_NE(manifest_json.find("\"status\":\"complete\""),
                  std::string::npos);
    }
}

} // anonymous namespace
