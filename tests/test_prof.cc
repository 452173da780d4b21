/**
 * @file
 * Host phase profiler (src/prof/) tests: nesting/self-time accounting,
 * thread-local stack correctness under the JobRunner, profiler-off
 * byte-identity against a golden run, and the JSON report schema.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hh"
#include "core/design.hh"
#include "core/gpu_system.hh"
#include "exec/job_runner.hh"
#include "prof/prof.hh"
#include "stats/latency_attr.hh"
#include "stats/prof_trace.hh"
#include "workload/app_catalog.hh"
#include "workload/workload.hh"

namespace
{

using namespace dcl1;

/** Find the first report node for @p phase, or nullptr. */
const prof::ReportNode *
findNode(const prof::Report &report, prof::Phase phase,
         std::uint8_t depth)
{
    for (const prof::ReportNode &n : report.nodes)
        if (n.phase == phase && n.depth == depth)
            return &n;
    return nullptr;
}

/**
 * Accounting drives enter()/exit() directly with synthetic durations:
 * the tree math must be exact, independent of any clock.
 */
TEST(ProfilerTest, NestingAndSelfTime)
{
    prof::Profiler p;
    p.enter(prof::Phase::Run);
    p.enter(prof::Phase::Core);
    p.exit(30);
    p.enter(prof::Phase::Core);
    p.exit(20);
    p.enter(prof::Phase::Noc);
    p.exit(10);
    p.exit(100);

    const prof::Report r = p.report();
    ASSERT_EQ(r.nodes.size(), 3u);
    EXPECT_TRUE(r.enabled);

    const prof::ReportNode *run = findNode(r, prof::Phase::Run, 0);
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->count, 1u);
    EXPECT_EQ(run->totalNs, 100u);
    EXPECT_EQ(run->selfNs, 100u - 30u - 20u - 10u);

    const prof::ReportNode *core = findNode(r, prof::Phase::Core, 1);
    ASSERT_NE(core, nullptr);
    EXPECT_EQ(core->count, 2u); // same (parent, phase) scope merges
    EXPECT_EQ(core->totalNs, 50u);
    EXPECT_EQ(core->selfNs, 50u); // leaf: self == total

    const prof::ReportNode *noc = findNode(r, prof::Phase::Noc, 1);
    ASSERT_NE(noc, nullptr);
    EXPECT_EQ(noc->totalNs, 10u);

    // Pre-order: the root phase precedes its children.
    EXPECT_EQ(r.nodes[0].depth, 0u);
    EXPECT_EQ(r.nodes[0].phase, prof::Phase::Run);

    // coveredNs == sum of root totals == sum of all self times.
    std::uint64_t self_sum = 0;
    for (const prof::ReportNode &n : r.nodes)
        self_sum += n.selfNs;
    EXPECT_EQ(r.coveredNs(), 100u);
    EXPECT_EQ(self_sum, 100u);
}

TEST(ProfilerTest, CountersAccumulate)
{
    prof::Profiler p;
    p.count(prof::Counter::MemReqAlloc, 3);
    p.count(prof::Counter::MemReqAlloc);
    p.count(prof::Counter::QuiescentDram, 7);
    const prof::Report r = p.report();
    EXPECT_EQ(
        r.counters[static_cast<std::size_t>(prof::Counter::MemReqAlloc)],
        4u);
    EXPECT_EQ(r.counters[static_cast<std::size_t>(
                  prof::Counter::QuiescentDram)],
              7u);
}

TEST(ProfilerTest, CoverageAgainstExternalWall)
{
    prof::Profiler p;
    p.enter(prof::Phase::Build);
    p.exit(20);
    p.enter(prof::Phase::Run);
    p.exit(75);
    prof::Report r = p.report();
    EXPECT_EQ(r.coveredNs(), 95u);
    EXPECT_DOUBLE_EQ(r.coverage(), 0.0); // wall not yet set
    r.wallNs = 100;
    EXPECT_DOUBLE_EQ(r.coverage(), 0.95);
}

/** The tls() pointer is null by default and scoped by TlsGuard. */
TEST(ProfilerTest, TlsGuardInstallsAndRestores)
{
    EXPECT_EQ(prof::tls(), nullptr);
    EXPECT_FALSE(prof::active());
    prof::Profiler outer;
    {
        prof::TlsGuard g1(&outer);
        EXPECT_EQ(prof::tls(), &outer);
        prof::Profiler inner;
        {
            prof::TlsGuard g2(&inner);
            EXPECT_EQ(prof::tls(), &inner);
        }
        EXPECT_EQ(prof::tls(), &outer);
    }
    EXPECT_EQ(prof::tls(), nullptr);
}

/** With no profiler installed, hooks are inert and allocate nothing. */
TEST(ProfilerTest, HooksAreNoopsWhenOff)
{
    ASSERT_EQ(prof::tls(), nullptr);
    {
        DCL1_PROF_SCOPE(Run);
        DCL1_PROF_COUNT(MemReqAlloc, 5);
    } // must not crash or touch any profiler
    prof::ProfPhase scope(prof::Phase::Core);
    scope.stop();
    scope.stop(); // idempotent
}

TEST(ProfilerTest, JsonSchemaRoundTrip)
{
    prof::Profiler p;
    p.enter(prof::Phase::Run);
    p.enter(prof::Phase::Dram);
    p.exit(40);
    p.exit(90);
    p.count(prof::Counter::TickCycles, 123);
    prof::Report r = p.report();
    r.wallNs = 100;

    const std::string json = r.json();
    // Schema-versioned, with every field the consumers key on.
    EXPECT_NE(json.find("\"schema\":\"dcl1-prof-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"wall_ns\":100"), std::string::npos);
    EXPECT_NE(json.find("\"covered_ns\":90"), std::string::npos);
    EXPECT_NE(json.find("\"phase\":\"run\""), std::string::npos);
    EXPECT_NE(json.find("\"phase\":\"dram\""), std::string::npos);
    EXPECT_NE(json.find("\"total_ns\":40"), std::string::npos);
    EXPECT_NE(json.find("\"self_ns\":50"), std::string::npos);
    EXPECT_NE(json.find("\"tick_cycles\":123"), std::string::npos);
    // Depths distinguish the nesting.
    EXPECT_NE(json.find("\"depth\":0"), std::string::npos);
    EXPECT_NE(json.find("\"depth\":1"), std::string::npos);
    // Balanced object (cheap well-formedness proxy without a parser).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(ProfilerTest, PhaseAndCounterNamesAreStable)
{
    for (std::size_t i = 0; i < prof::kPhaseCount; ++i)
        EXPECT_STRNE(prof::phaseName(static_cast<prof::Phase>(i)), "?");
    for (std::size_t i = 0; i < prof::kCounterCount; ++i)
        EXPECT_STRNE(prof::counterName(static_cast<prof::Counter>(i)),
                     "?");
}

/**
 * Thread-local stack correctness under the JobRunner: each of N
 * parallel jobs opens a distinctive scope pattern; every JobResult
 * must carry exactly its own counts, uncontaminated by the jobs that
 * shared the pool.
 */
TEST(ProfilerExecTest, PerJobReportsAreIsolated)
{
    exec::ExecOptions opts;
    opts.jobs = 4;
    opts.profile = true;
    exec::JobRunner runner(opts);

    std::vector<exec::JobSpec> specs(8);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].label = "prof-job-" + std::to_string(i);
        specs[i].fn = [i](exec::JobContext &) {
            for (std::size_t k = 0; k <= i; ++k) {
                DCL1_PROF_SCOPE(Core);
                DCL1_PROF_COUNT(MemReqAlloc, 10);
            }
            return core::RunMetrics{};
        };
    }
    const std::vector<exec::JobResult> results = runner.run(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok()) << results[i].error;
        const prof::Report &r = results[i].prof;
        EXPECT_TRUE(r.enabled);
        EXPECT_GT(r.wallNs, 0u);
        const prof::ReportNode *core =
            findNode(r, prof::Phase::Core, 0);
        ASSERT_NE(core, nullptr) << "job " << i;
        EXPECT_EQ(core->count, i + 1) << "job " << i;
        EXPECT_EQ(r.counters[static_cast<std::size_t>(
                      prof::Counter::MemReqAlloc)],
                  10u * (i + 1))
            << "job " << i;
    }
    // Worker threads must leave no profiler installed behind them.
    EXPECT_EQ(prof::tls(), nullptr);
}

/** Profiling off leaves JobResult::prof disabled and empty. */
TEST(ProfilerExecTest, DisabledByDefault)
{
    exec::ExecOptions opts;
    opts.jobs = 1;
    exec::JobRunner runner(opts);
    std::vector<exec::JobSpec> specs(1);
    specs[0].label = "plain";
    specs[0].fn = [](exec::JobContext &) { return core::RunMetrics{}; };
    const std::vector<exec::JobResult> results = runner.run(specs);
    ASSERT_TRUE(results[0].ok());
    EXPECT_FALSE(results[0].prof.enabled);
    EXPECT_TRUE(results[0].prof.nodes.empty());
}

workload::WorkloadParams
profTestApp()
{
    workload::WorkloadParams p;
    p.name = "prof-test";
    p.warpsPerCore = 8;
    p.memRatio = 0.3;
    p.sharedLines = 400;
    p.sharedFrac = 0.7;
    p.privateLines = 256;
    p.coalescedAccesses = 2;
    return p;
}

/**
 * The zero-cost contract, at the source of truth: the same seed run
 * with and without a profiler installed must produce byte-identical
 * stats (text and JSON) and identical metrics. The profiler observes
 * the host; it must never perturb the simulated machine.
 */
TEST(ProfilerExecTest, ProfilerOffByteIdentity)
{
    const core::SystemConfig sys;
    const core::DesignConfig design = core::designByName("Sh40");

    auto golden = [&](bool profiled) {
        prof::Profiler profiler;
        std::ostringstream stats_txt, stats_json;
        core::RunMetrics rm;
        {
            prof::TlsGuard guard(profiled ? &profiler : nullptr);
            core::GpuSystem gpu(sys, design, profTestApp());
            gpu.run(2000, 1000);
            gpu.dumpStats(stats_txt);
            gpu.dumpStatsJson(stats_json);
            rm = gpu.metrics();
        }
        return std::make_tuple(stats_txt.str(), stats_json.str(), rm);
    };

    const auto [txt_off, json_off, rm_off] = golden(false);
    const auto [txt_on, json_on, rm_on] = golden(true);
    EXPECT_EQ(txt_off, txt_on);
    EXPECT_EQ(json_off, json_on);
    EXPECT_EQ(rm_off.cycles, rm_on.cycles);
    EXPECT_EQ(rm_off.instructions, rm_on.instructions);
    EXPECT_DOUBLE_EQ(rm_off.ipc, rm_on.ipc);
}

/**
 * A profiled GpuSystem run must attribute >= 95 % of its own bracket:
 * the acceptance criterion of the observability layer.
 */
TEST(ProfilerExecTest, CoverageAtLeast95Percent)
{
    exec::ExecOptions opts;
    opts.jobs = 1;
    opts.profile = true;
    exec::JobRunner runner(opts);
    std::vector<exec::JobSpec> specs(1);
    specs[0].label = "coverage";
    specs[0].fn = [](exec::JobContext &) {
        const core::SystemConfig sys;
        core::GpuSystem gpu(sys, core::designByName("Sh40+C10+Boost"),
                            profTestApp());
        gpu.run(2000, 1000);
        return gpu.metrics();
    };
    const std::vector<exec::JobResult> results = runner.run(specs);
    ASSERT_TRUE(results[0].ok()) << results[0].error;
    const prof::Report &r = results[0].prof;
    ASSERT_TRUE(r.enabled);
    ASSERT_GT(r.wallNs, 0u);
    EXPECT_GE(r.coverage(), 0.95)
        << "covered " << r.coveredNs() << " of " << r.wallNs << " ns";
    // Build and Run both appear as root phases of a sweep-style job.
    EXPECT_NE(findNode(r, prof::Phase::Build, 0), nullptr);
    EXPECT_NE(findNode(r, prof::Phase::Run, 0), nullptr);
    // The tick hooks fired.
    EXPECT_GT(r.counters[static_cast<std::size_t>(
                  prof::Counter::TickCycles)],
              0u);
    EXPECT_GT(r.counters[static_cast<std::size_t>(
                  prof::Counter::MemReqAlloc)],
              0u);
}

/**
 * The stalled-core census: Baseline x T-AlexNet keeps its private L1s
 * blocked, so busy cores spend ticks that issue, move and retire
 * nothing. The count is bounded by core ticks and fixed by the seed.
 */
TEST(ProfilerExecTest, CountsStalledCores)
{
    const core::SystemConfig sys;
    auto census = [&] {
        prof::Profiler profiler;
        {
            prof::TlsGuard guard(&profiler);
            core::GpuSystem gpu(sys, core::designByName("Baseline"),
                                workload::appByName("T-AlexNet").params);
            gpu.run(2000, 1000);
        }
        const prof::Report r = profiler.report();
        return std::make_pair(
            r.counters[static_cast<std::size_t>(
                prof::Counter::StalledCore)],
            r.counters[static_cast<std::size_t>(
                prof::Counter::TickCycles)]);
    };
    const auto [stalled, ticks] = census();
    EXPECT_GT(stalled, 0u);
    EXPECT_LE(stalled, std::uint64_t(sys.numCores) * ticks);
    EXPECT_EQ(census().first, stalled);
}

/**
 * The DRAM census: a channel tick is quiescent (empty queue), waiting
 * (queued requests, no ready bank) or issues exactly one read or
 * write. Baseline x C-BLK streams, so its channels wait.
 */
TEST(ProfilerExecTest, CountsWaitingDramTicks)
{
    const core::SystemConfig sys;
    prof::Profiler profiler;
    core::RunMetrics rm;
    {
        prof::TlsGuard guard(&profiler);
        core::GpuSystem gpu(sys, core::designByName("Baseline"),
                            workload::appByName("C-BLK").params);
        gpu.run(3000, 0);
        rm = gpu.metrics();
    }
    const prof::Report r = profiler.report();
    auto counter = [&](prof::Counter k) {
        return r.counters[static_cast<std::size_t>(k)];
    };
    const std::uint64_t waiting = counter(prof::Counter::WaitingDram);
    EXPECT_GT(waiting, 0u);
    EXPECT_EQ(waiting + counter(prof::Counter::QuiescentDram) +
                  rm.dramReads + rm.dramWrites,
              std::uint64_t(sys.numChannels) *
                  counter(prof::Counter::TickCycles));
}

/** Chrome-trace bridge: one flame-chart slice per report node. */
TEST(ProfTraceTest, ExportHostPhases)
{
    prof::Profiler p;
    p.enter(prof::Phase::Run);
    p.enter(prof::Phase::Core);
    p.exit(40000);
    p.enter(prof::Phase::Noc);
    p.exit(20000);
    p.exit(100000);
    prof::Report r = p.report();
    r.wallNs = 100000;

    stats::TraceExport trace;
    stats::exportHostPhases(trace, r);
    EXPECT_EQ(trace.events(), r.nodes.size());
    std::ostringstream os;
    trace.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"run\""), std::string::npos);
    EXPECT_NE(json.find("\"core\""), std::string::npos);
    EXPECT_NE(json.find("\"noc\""), std::string::npos);

    // Host phases are not request lifecycles: 1-in-3 request thinning
    // keeps every one, and no sampled request (53441 is the 53,441st)
    // shares a track with them.
    for (const std::uint32_t every : {16u, 3u}) {
        stats::TraceExport mixed(every);
        stats::tlsTraceSink() = &mixed;
        for (const std::uint32_t id : {1u, 53440u, 53441u, 53443u}) {
            stats::ReqTelemetry t; // an "issue" span over [10, 20)
            t.sampleId = id;
            t.lastStamp = 10;
            stats::tlmEnter(t, stats::Seg::NocReq, 20);
        }
        stats::tlsTraceSink() = nullptr;
        const std::size_t requests = mixed.events();
        stats::exportHostPhases(mixed, r);
        EXPECT_EQ(mixed.events(), requests + r.nodes.size()) << every;

        std::ostringstream out;
        mixed.writeJson(out);
        json::Value doc;
        std::string error;
        ASSERT_TRUE(json::parse(out.str(), doc, error)) << error;
        const json::Value *events = doc.find("traceEvents");
        ASSERT_NE(events, nullptr);
        std::set<std::pair<std::string, std::string>> request_tracks,
            host_tracks;
        for (const json::Value &e : events->items) {
            std::string name;
            ASSERT_TRUE(e.get("name", name));
            const auto track =
                std::make_pair(e.find("pid")->text, e.find("tid")->text);
            (name == "issue" ? request_tracks : host_tracks).insert(track);
        }
        EXPECT_EQ(request_tracks.size(), requests) << every;
        EXPECT_EQ(host_tracks.size(), 1u) << every;
        for (const auto &track : host_tracks)
            EXPECT_EQ(request_tracks.count(track), 0u)
                << "pid " << track.first << " tid " << track.second;
    }
}

} // anonymous namespace
