/**
 * @file
 * Tests for the telemetry layer: timeline sampler, request-latency
 * attribution, Chrome trace export, and their GpuSystem integration
 * (zero perturbation when off, determinism when on).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/gpu_system.hh"
#include "stats/latency_attr.hh"
#include "stats/timeline.hh"
#include "stats/trace_export.hh"
#include "workload/app_catalog.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::stats;

// ---------------------------------------------------------------- //
// TimelineSampler
// ---------------------------------------------------------------- //

TEST(TimelineSampler, DeltasRatesGaugesInOneRow)
{
    std::vector<std::string> rows;
    std::uint64_t ctr = 0, num = 0, den = 0;
    double g = 1.5;
    TimelineSampler tl(10,
                       [&](const std::string &r) { rows.push_back(r); });
    tl.addCounter("c", [&] { return ctr; });
    tl.addPerCycle("r", [&] { return ctr; });
    tl.addRatio("q", [&] { return num; }, [&] { return den; });
    tl.addGauge("g", [&] { return g; });
    tl.addGaugeArray("qs", 2,
                     [&](std::size_t i) { return double(i) + g; });
    tl.start(0);
    ctr = 5;
    num = 2;
    den = 4;
    tl.maybeSample(9); // not due yet
    EXPECT_TRUE(rows.empty());
    tl.maybeSample(10);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], "{\"cycle\":10,\"dt\":10,\"phase\":\"warmup\","
                       "\"c\":5,\"r\":0.5,\"q\":0.5,\"g\":1.5,"
                       "\"qs\":[1.5,2.5]}");

    // Nothing moved: deltas are 0 and the ratio reports 0, not NaN.
    g = 0.0;
    tl.maybeSample(20);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1], "{\"cycle\":20,\"dt\":10,\"phase\":\"warmup\","
                       "\"c\":0,\"r\":0,\"q\":0,\"g\":0,\"qs\":[0,1]}");
}

TEST(TimelineSampler, RebaseHidesResetDiscontinuity)
{
    std::vector<std::string> rows;
    std::uint64_t ctr = 0;
    TimelineSampler tl(10,
                       [&](const std::string &r) { rows.push_back(r); });
    tl.addCounter("c", [&] { return ctr; });
    tl.start(0);

    // Partial warmup tail before the stats reset.
    ctr = 7;
    tl.flushTail(4);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0],
              "{\"cycle\":4,\"dt\":4,\"phase\":\"warmup\",\"c\":7}");

    // The reset jumps the underlying counter; rebase re-reads the
    // baseline so the discontinuity never shows up as a delta.
    ctr = 100;
    tl.rebase(4);
    ctr = 103;
    tl.maybeSample(14);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1],
              "{\"cycle\":14,\"dt\":10,\"phase\":\"measure\",\"c\":3}");

    // finish() flushes the final partial interval exactly once.
    ctr = 104;
    tl.finish(17);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[2],
              "{\"cycle\":17,\"dt\":3,\"phase\":\"measure\",\"c\":1}");
    tl.finish(17);
    EXPECT_EQ(rows.size(), 3u);
    EXPECT_EQ(tl.rows(), 3u);
}

TEST(TimelineSampler, SampleHookSeesCycleAndDt)
{
    std::vector<std::pair<Cycle, Cycle>> hooks;
    TimelineSampler tl(8, [](const std::string &) {});
    tl.setSampleHook(
        [&](Cycle now, Cycle dt) { hooks.emplace_back(now, dt); });
    tl.start(0);
    tl.maybeSample(8);
    tl.maybeSample(16);
    tl.finish(19);
    ASSERT_EQ(hooks.size(), 3u);
    EXPECT_EQ(hooks[2], std::make_pair(Cycle(19), Cycle(3)));
}

// ---------------------------------------------------------------- //
// LatencyAttribution
// ---------------------------------------------------------------- //

TEST(LatencyAttribution, SegmentsSumExactlyToRoundTrip)
{
    LatencyAttribution la(1234, 1);
    ReqTelemetry t;
    la.onCreate(t, 100);
    ASSERT_NE(t.sampleId, 0u);
    tlmEnter(t, Seg::NocReq, 105);   // Issue: 5
    tlmEnter(t, Seg::Cache, 107);    // NocReq: 2
    tlmEnter(t, Seg::L2, 112);       // Cache: 5
    tlmEnter(t, Seg::Dram, 120);     // L2: 8
    tlmEnter(t, Seg::Cache, 130);    // Dram: 10 (reply revisits cache)
    tlmEnter(t, Seg::NocReply, 133); // Cache: +3 -> 8
    la.onRetire(t, 140);             // NocReply: 7
    EXPECT_EQ(t.sampleId, 0u);       // retires exactly once

    EXPECT_EQ(la.total().count(), 1u);
    EXPECT_EQ(la.total().sum(), 40u); // == retire - create
    EXPECT_EQ(la.segment(Seg::Issue).sum(), 5u);
    EXPECT_EQ(la.segment(Seg::NocReq).sum(), 2u);
    EXPECT_EQ(la.segment(Seg::Cache).sum(), 8u);
    EXPECT_EQ(la.segment(Seg::L2).sum(), 8u);
    EXPECT_EQ(la.segment(Seg::Dram).sum(), 10u);
    EXPECT_EQ(la.segment(Seg::NocReply).sum(), 7u);

    std::ostringstream os;
    la.printBreakdown(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("1 sampled read(s), 1-in-1"), std::string::npos);
    for (const char *seg :
         {"issue", "noc-req", "cache", "l2", "dram", "noc-reply",
          "total"})
        EXPECT_NE(out.find(seg), std::string::npos) << seg;
}

TEST(LatencyAttribution, UnsampledRequestsAreInert)
{
    LatencyAttribution la(99, 1);
    ReqTelemetry t; // sampleId == 0: never picked
    tlmEnter(t, Seg::Dram, 50);
    EXPECT_EQ(t.lastStamp, 0u);
    la.onRetire(t, 60);
    EXPECT_EQ(la.total().count(), 0u);
}

TEST(LatencyAttribution, SamplingIsSeedDeterministic)
{
    // Same seed -> the same subset of requests is attributed.
    auto picks = [](std::uint64_t seed) {
        LatencyAttribution la(seed, 4);
        std::vector<bool> out;
        for (int i = 0; i < 200; ++i) {
            ReqTelemetry t;
            la.onCreate(t, Cycle(i));
            out.push_back(t.sampleId != 0);
        }
        return out;
    };
    const auto a = picks(42), b = picks(42), c = picks(43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    // Roughly 1-in-4 with a deterministic draw per candidate.
    const auto n =
        std::size_t(std::count(a.begin(), a.end(), true));
    EXPECT_GT(n, 25u);
    EXPECT_LT(n, 90u);
}

// ---------------------------------------------------------------- //
// TraceExport
// ---------------------------------------------------------------- //

TEST(TraceExport, WritesSlicesAndCounters)
{
    TraceExport te(1, 100);
    te.reqSlice(1, "issue", 0, 5); // lint: trace-ok (test fixture)
    te.counterEvent("q", 10, 2.5); // lint: trace-ok (test fixture)
    EXPECT_EQ(te.events(), 2u);

    std::ostringstream os;
    te.writeJson(os);
    EXPECT_EQ(os.str(),
              "{\"traceEvents\":["
              "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"issue\","
              "\"ts\":0,\"dur\":5},"
              "{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"name\":\"q\","
              "\"ts\":10,\"args\":{\"value\":2.5}}"
              "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(TraceExport, ThinsLifecyclesAndCapsEvents)
{
    TraceExport te(2, 3);
    // Direct emission exercises the exporter itself (lint R8).
    te.reqSlice(1, "issue", 0, 1); // lint: trace-ok; kept (1-1)%2==0
    te.reqSlice(2, "issue", 0, 1); // lint: trace-ok; thinned out
    te.reqSlice(3, "issue", 0, 1); // lint: trace-ok; kept
    te.counterEvent("q", 0, 1.0);  // lint: trace-ok; fills the cap
    te.counterEvent("q", 1, 1.0);  // lint: trace-ok; dropped (cap)
    te.reqSlice(5, "issue", 0, 1); // lint: trace-ok; dropped (cap)
    EXPECT_EQ(te.events(), 3u);
    EXPECT_EQ(te.dropped(), 2u);
}

// ---------------------------------------------------------------- //
// GpuSystem integration
// ---------------------------------------------------------------- //

workload::WorkloadParams
telemetryApp()
{
    workload::WorkloadParams p;
    p.name = "telemetry-app";
    p.warpsPerCore = 16;
    p.memRatio = 0.4;
    p.sharedLines = 800;
    p.sharedFrac = 0.9;
    p.privateLines = 512;
    p.coalescedAccesses = 2;
    return p;
}

struct TelemetryRun
{
    core::RunMetrics metrics;
    std::vector<std::string> rows;
    std::string traceJson;
    std::uint64_t totalSum = 0;
    std::uint64_t segSum = 0;
    std::string statsDump;
};

TelemetryRun
runWithTelemetry(const core::DesignConfig &design)
{
    TelemetryRun out;
    core::GpuSystem gpu(core::SystemConfig(), design, telemetryApp());
    gpu.enableTimeline(
        64, [&](const std::string &r) { out.rows.push_back(r); });
    gpu.enableLatency(1);
    TraceExport trace(4, 1u << 16);
    gpu.enableTrace(&trace);
    gpu.run(2000, 1000);
    gpu.finishTelemetry();
    out.metrics = gpu.metrics();
    out.totalSum = gpu.latency()->total().sum();
    for (std::size_t i = 0; i < kNumSegs; ++i)
        out.segSum += gpu.latency()->segment(static_cast<Seg>(i)).sum();
    std::ostringstream ts;
    trace.writeJson(ts);
    out.traceJson = ts.str();
    std::ostringstream ss;
    gpu.dumpStats(ss);
    out.statsDump = ss.str();
    return out;
}

TEST(GpuSystemTelemetry, OffMeansUnperturbed)
{
    // Metrics with the full telemetry stack on equal the plain run's.
    core::GpuSystem plain(core::SystemConfig(), core::sharedDcl1(40),
                          telemetryApp());
    plain.run(2000, 1000);
    const core::RunMetrics off = plain.metrics();
    const core::RunMetrics on =
        runWithTelemetry(core::sharedDcl1(40)).metrics;

    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.instructions, off.instructions);
    EXPECT_DOUBLE_EQ(on.ipc, off.ipc);
    EXPECT_EQ(on.l1Accesses, off.l1Accesses);
    EXPECT_EQ(on.l1Misses, off.l1Misses);
    EXPECT_EQ(on.noc1Flits, off.noc1Flits);
    EXPECT_EQ(on.noc2Flits, off.noc2Flits);
    EXPECT_EQ(on.dramReads, off.dramReads);
    EXPECT_EQ(on.dramWrites, off.dramWrites);
    EXPECT_DOUBLE_EQ(on.avgReadLatency, off.avgReadLatency);
}

TEST(GpuSystemTelemetry, SegmentsAccountForEveryReadCycle)
{
    const TelemetryRun r = runWithTelemetry(core::sharedDcl1(40));
    ASSERT_GT(r.totalSum, 0u);
    // Per-segment custody spans partition each round trip, so the
    // segment sums reconstruct the total exactly...
    EXPECT_EQ(r.segSum, r.totalSum);
    // ...and with 1-in-1 sampling the total equals the cores' own
    // read-latency accounting (same create/retire stamps).
    std::uint64_t read_latency_sum = 0;
    std::istringstream in(r.statsDump);
    std::string line;
    while (std::getline(in, line)) {
        const auto pos = line.find(".read_latency_sum ");
        if (pos != std::string::npos)
            read_latency_sum += std::strtoull(
                line.c_str() + pos + 18, nullptr, 10);
    }
    EXPECT_EQ(r.totalSum, read_latency_sum);
    // The attribution group publishes through the stats tree too.
    EXPECT_NE(r.statsDump.find("latency.total.p95"),
              std::string::npos);
}

TEST(GpuSystemTelemetry, SameSeedRunsAreIdentical)
{
    const TelemetryRun a = runWithTelemetry(core::sharedDcl1(40));
    const TelemetryRun b = runWithTelemetry(core::sharedDcl1(40));
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.traceJson, b.traceJson);
    EXPECT_EQ(a.statsDump, b.statsDump);
    EXPECT_GT(a.rows.size(), 10u); // 3000 cycles / 64-cycle interval
    EXPECT_NE(a.traceJson.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(a.traceJson.find("\"ph\":\"C\""), std::string::npos);
}

TEST(GpuSystemTelemetry, TimelineRowsCoverBothPhases)
{
    const TelemetryRun r = runWithTelemetry(core::baselineDesign());
    ASSERT_GT(r.rows.size(), 2u);
    bool warmup = false, measure = false;
    Cycle last = 0;
    for (const std::string &row : r.rows) {
        EXPECT_EQ(row.front(), '{');
        EXPECT_EQ(row.back(), '}');
        warmup = warmup ||
                 row.find("\"phase\":\"warmup\"") != std::string::npos;
        measure = measure ||
                  row.find("\"phase\":\"measure\"") != std::string::npos;
        // Cycles strictly increase row to row.
        const Cycle c = std::strtoull(row.c_str() + 9, nullptr, 10);
        EXPECT_GT(c, last);
        last = c;
    }
    EXPECT_TRUE(warmup);
    EXPECT_TRUE(measure);
    // The DcL1 per-node queue tracks are absent on the baseline...
    EXPECT_EQ(r.rows.back().find("node_q1"), std::string::npos);
    // ...and present on a DcL1 topology.
    const TelemetryRun d = runWithTelemetry(core::sharedDcl1(40));
    EXPECT_NE(d.rows.back().find("node_q1"), std::string::npos);
}

/** Each request track of a Chrome trace: its slices as (ts, dur). */
std::map<std::uint64_t, std::vector<std::pair<Cycle, Cycle>>>
requestTracks(const std::string &json)
{
    // Bounded reads only: the C string functions would rescan the whole
    // multi-megabyte document per call under ASan's strict checks.
    auto number_after = [&json](std::size_t from, const std::string &key) {
        std::uint64_t v = 0;
        const std::size_t at = json.find(key, from) + key.size();
        std::from_chars(json.data() + at, json.data() + json.size(), v);
        return v;
    };
    const std::string slice = "{\"ph\":\"X\",\"pid\":1,";
    std::map<std::uint64_t, std::vector<std::pair<Cycle, Cycle>>> tracks;
    for (std::size_t at = json.find(slice); at != std::string::npos;
         at = json.find(slice, at + 1))
        tracks[number_after(at, "\"tid\":")].emplace_back(
            number_after(at, "\"ts\":"), number_after(at, "\"dur\":"));
    return tracks;
}

TEST(GpuSystemTelemetry, TraceEndsInFlightRequestsAtTheLastCycle)
{
    // P-2MM fills L1 MSHR target lists, so some sampled requests sit in
    // one segment across the end of the run.
    core::GpuSystem gpu(core::SystemConfig(), core::baselineDesign(),
                        workload::appByName("P-2MM").params);
    gpu.enableLatency(1);
    TraceExport trace(1, 1u << 22);
    gpu.enableTrace(&trace);
    gpu.run(1500, 500);
    gpu.finishTelemetry();
    const Cycle end = gpu.cycle();
    ASSERT_TRUE(gpu.drain());
    gpu.enableTrace(nullptr);

    std::ostringstream os;
    trace.writeJson(os);
    ASSERT_EQ(trace.dropped(), 0u);
    std::size_t untiled = 0, across_end = 0, at_end = 0;
    for (auto &track : requestTracks(os.str())) {
        std::vector<std::pair<Cycle, Cycle>> &slices = track.second;
        std::sort(slices.begin(), slices.end());
        // A track tiles its request's lifetime: no gap, no overlap...
        for (std::size_t i = 0; i + 1 < slices.size(); ++i)
            untiled += slices[i].first + slices[i].second !=
                       slices[i + 1].first;
        // ...and the drain continues it from the end of the run.
        for (const auto &[ts, dur] : slices) {
            across_end += ts < end && ts + dur > end;
            at_end += ts + dur == end;
        }
    }
    EXPECT_EQ(untiled, 0u);
    EXPECT_EQ(across_end, 0u);
    EXPECT_GT(at_end, 0u);
}

TEST(GpuSystemTelemetry, StatsJsonDumpIsWellFormed)
{
    core::GpuSystem gpu(core::SystemConfig(), core::sharedDcl1(40),
                        telemetryApp());
    gpu.enableLatency(1);
    gpu.run(1000, 500);
    std::ostringstream os;
    gpu.dumpStatsJson(os);
    const std::string out = os.str();
    ASSERT_GT(out.size(), 2u);
    EXPECT_EQ(out.front(), '{');
    EXPECT_EQ(out.substr(out.size() - 2), "}\n");
    EXPECT_NE(out.find("\"name\":\"gpu\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"latency\""), std::string::npos);
    EXPECT_NE(out.find("\"p99\":"), std::string::npos);
}

} // anonymous namespace
