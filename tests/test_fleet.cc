/**
 * @file
 * Tests for multi-process fleet runs: write-once cell claims
 * (RunManifest::claim), the JobRunner's claim mode (deferred cells, no
 * finalize), and crash recovery by the plain resume run that merges
 * the fleet.
 *
 * Suite names matter: CI's TSan and -Wthread-safety lanes select
 * `Fleet` by regex.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "common/log.hh"
#include "exec/atomic_file.hh"
#include "exec/job_runner.hh"
#include "exec/result_sink.hh"
#include "exec/run_manifest.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::exec;

/** Unlink every regular file in @p dir (one level; no recursion). */
void
clearDirectory(const std::string &dir)
{
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return;
    while (const struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name != "." && name != "..")
            ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
}

/**
 * Per-test scratch run directory, wiped of manifest, WAL and claims a
 * previous (possibly killed) test run left behind.
 */
std::string
freshRunDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() +
                            csprintf("dcl1-fleet-%d-", int(getpid())) +
                            name;
    ensureDirectory(dir);
    std::remove((dir + "/manifest.json").c_str());
    std::remove((dir + "/jobs.jsonl").c_str());
    clearDirectory(dir + "/claims");
    return dir;
}

std::string
manifestText(const std::string &dir)
{
    std::ifstream in(dir + "/manifest.json");
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

ExecOptions
workers(unsigned jobs)
{
    ExecOptions opts;
    opts.jobs = jobs;
    return opts;
}

/** Deterministic synthetic cell: metrics are a pure function of @p i. */
JobSpec
synthSpec(std::size_t i)
{
    JobSpec spec;
    spec.label = csprintf("synth/cell-%zu", i);
    spec.key = csprintf("design=S%zu|app=synth|seed=%zu", i, i);
    spec.fn = [i](JobContext &) {
        core::RunMetrics rm;
        rm.cycles = 1000 + i;
        rm.instructions = 500 * (i + 1);
        rm.ipc = 1.0 / double(3 + i); // infinite decimal: %.17g test
        rm.l1MissRate = 0.25 * double(i);
        rm.avgReadLatency = 100.0 + double(i) / 3.0;
        return rm;
    };
    return spec;
}

std::string
csvOf(const std::vector<JobResult> &results)
{
    std::string csv = "label,ipc,l1_miss_rate,avg_read_latency\n";
    for (const auto &r : results)
        csv += csprintf("%s,%.17g,%.17g,%.17g\n", r.label.c_str(),
                        r.metrics.ipc, r.metrics.l1MissRate,
                        r.metrics.avgReadLatency);
    return csv;
}

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

/**
 * Dies the way SIGKILL would — no unwinding, no manifest finalize —
 * when the @p n-th job starts, i.e. right after its claim was won.
 */
class ExitAtJobStartSink : public ResultSink
{
  public:
    explicit ExitAtJobStartSink(std::size_t n) : n_(n) {}

    void
    onJobStart(std::size_t, const std::string &, unsigned) override
    {
        if (++started_ == n_)
            std::_Exit(137);
    }

  private:
    std::size_t n_;
    std::size_t started_ = 0;
};

/** One `--jobs=1` worker pass over @p specs, watched by @p sink. */
std::vector<JobResult>
workerPass(RunManifest &manifest, const std::vector<JobSpec> &specs,
           ResultSink *sink = nullptr)
{
    JobRunner worker(workers(1));
    worker.attachManifest(&manifest, /*claim_cells=*/true);
    worker.addSink(sink);
    return worker.run(specs);
}

/** The plain resume run that merges a fleet: claims nothing. */
std::vector<JobResult>
mergePass(RunManifest &manifest, const std::vector<JobSpec> &specs)
{
    JobRunner merge(workers(1));
    merge.attachManifest(&manifest);
    return merge.run(specs);
}

TEST(Fleet, ClaimRaceHasExactlyOneWinner)
{
    const std::string dir = freshRunDir("race");
    const std::string key = "design=A|app=x|seed=0";

    // N workers, each with its own view of the run directory, race
    // for one cell; O_CREAT|O_EXCL must pick exactly one winner.
    constexpr int kWorkers = 8;
    std::vector<std::unique_ptr<RunManifest>> views;
    for (int i = 0; i < kWorkers; ++i)
        views.push_back(RunManifest::openOrCreate(dir, "fleet-race"));
    std::atomic<bool> go{false};
    std::atomic<int> wins{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kWorkers; ++i) {
        threads.emplace_back([&, i] {
            while (!go.load())
                std::this_thread::yield();
            if (views[i]->claim(key))
                wins.fetch_add(1);
        });
    }
    go.store(true);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(wins.load(), 1);

    // A claim is never released: every later claimant loses too.
    for (const auto &view : views)
        EXPECT_FALSE(view->claim(key));
}

TEST(Fleet, ClaimFileNameIsSanitizedAndCollisionResistant)
{
    const std::string ugly = "design=Sh40+C10|app=T-AlexNet/x|seed=1";
    const std::string name = RunManifest::claimFileName(ugly);
    EXPECT_EQ(name.find('|'), std::string::npos);
    EXPECT_EQ(name.find('/'), std::string::npos);
    EXPECT_EQ(name.find('+'), std::string::npos);
    EXPECT_EQ(name.find('='), std::string::npos);

    // Same sanitized prefix, different keys: the hash disambiguates.
    const std::string other = "design=Sh40-C10|app=T-AlexNet|x|seed=1";
    EXPECT_NE(name, RunManifest::claimFileName(other));
    // Stable across calls (cross-process file rendezvous).
    EXPECT_EQ(name, RunManifest::claimFileName(ugly));
}

TEST(Fleet, DeferredWhenAnotherWorkerHoldsTheCell)
{
    const std::string dir = freshRunDir("defer");
    std::vector<JobSpec> specs = {synthSpec(0), synthSpec(1)};

    // Another worker already claimed cell 0.
    auto other = RunManifest::openOrCreate(dir, "fleet-defer");
    ASSERT_TRUE(other->claim(specs[0].key));

    auto manifest = RunManifest::openOrCreate(dir, "fleet-defer");
    SummarySink summary;
    const auto results = workerPass(*manifest, specs, &summary);

    // Claimed elsewhere: not run here, and not failed.
    EXPECT_EQ(results[0].outcome, Outcome::Deferred);
    EXPECT_TRUE(results[1].ok());
    EXPECT_EQ(summary.last.deferredJobs, 1u);
    EXPECT_EQ(summary.last.failedJobs, 0u);
    EXPECT_EQ(manifest->completedCount(), 1u);
    // A worker pass leaves finalization to the merge.
    EXPECT_NE(manifestText(dir).find("\"status\":\"running\""),
              std::string::npos);

    // The claim is never released, so a second pass defers it again;
    const auto again = workerPass(*manifest, specs);
    EXPECT_EQ(again[0].outcome, Outcome::Deferred);
    EXPECT_TRUE(again[1].resumed);

    // the merge, which claims nothing, simulates it.
    const auto merged = mergePass(*manifest, specs);
    EXPECT_TRUE(merged[0].ok());
    EXPECT_FALSE(merged[0].resumed);
    EXPECT_TRUE(merged[1].resumed);
    EXPECT_EQ(manifest->completedCount(), 2u);
    EXPECT_NE(manifestText(dir).find("\"status\":\"complete\""),
              std::string::npos);
}

TEST(FleetDeathTest, HardKilledWorkerIsRecoveredByTheMerge)
{
    std::vector<JobSpec> specs;
    for (std::size_t i = 0; i < 4; ++i)
        specs.push_back(synthSpec(i));

    // Reference: the same batch, uninterrupted, no fleet.
    std::string ref_csv;
    {
        auto manifest =
            RunManifest::openOrCreate(freshRunDir("ref"), "fleet-kill");
        ref_csv = csvOf(mergePass(*manifest, specs));
    }

    // A worker dies as its second cell starts: that cell is claimed,
    // with no WAL record, and the manifest is never finalized.
    const std::string dir = freshRunDir("kill");
    ExitAtJobStartSink kill(2);
    EXPECT_EXIT(
        workerPass(*RunManifest::openOrCreate(dir, "fleet-kill"), specs,
                   &kill),
        ::testing::ExitedWithCode(137), "");
    EXPECT_NE(manifestText(dir).find("\"status\":\"running\""),
              std::string::npos);

    auto manifest = RunManifest::openOrCreate(dir, "fleet-kill");
    EXPECT_EQ(manifest->completedCount(), 1u);

    // A second worker pass defers exactly the dead worker's cell.
    const auto pass = workerPass(*manifest, specs);
    EXPECT_TRUE(pass[0].resumed);
    EXPECT_EQ(pass[1].outcome, Outcome::Deferred);
    for (std::size_t i : {2u, 3u})
        EXPECT_EQ(pass[i].outcome, Outcome::Ok) << i;

    // The merge simulates exactly that cell; the CSV matches the
    // uninterrupted reference byte for byte.
    const auto merged = mergePass(*manifest, specs);
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(merged[i].resumed, i != 1) << i;
    EXPECT_EQ(merged[1].outcome, Outcome::Ok);
    EXPECT_EQ(csvOf(merged), ref_csv);
}

} // namespace
