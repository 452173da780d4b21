/** @file End-to-end integration and property tests for GpuSystem. */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>

#include "common/log.hh"
#include "common/rng.hh"
#include "core/experiment.hh"
#include "core/gpu_system.hh"
#include "workload/app_catalog.hh"
#include "workload/trace_file.hh"

namespace dcl1::core
{

/**
 * Print a design by name. gtest's fallback prints the raw bytes, which
 * hold a heap address, so test names would change between builds.
 */
void
PrintTo(const DesignConfig &d, std::ostream *os)
{
    *os << d.name;
}

} // namespace dcl1::core

namespace
{

using namespace dcl1;
using namespace dcl1::core;

workload::WorkloadParams
sharedHeavyApp()
{
    workload::WorkloadParams p;
    p.name = "itest-shared";
    p.warpsPerCore = 16;
    p.memRatio = 0.4;
    p.sharedLines = 800;
    p.sharedFrac = 0.9;
    p.privateLines = 512;
    p.coalescedAccesses = 2;
    return p;
}

RunMetrics
runSmall(const DesignConfig &d,
         const workload::WorkloadParams &app = sharedHeavyApp(),
         const SystemConfig &sys = SystemConfig())
{
    GpuSystem gpu(sys, d, app);
    gpu.run(4000, 6000);
    return gpu.metrics();
}

/** Integration: every design preset simulates and makes progress. */
class AllDesignsTest : public ::testing::TestWithParam<DesignConfig>
{
};

TEST_P(AllDesignsTest, MakesProgress)
{
    const RunMetrics rm = runSmall(GetParam());
    EXPECT_GT(rm.instructions, 0u);
    EXPECT_GT(rm.ipc, 0.0);
    EXPECT_GT(rm.l1Accesses, 0u);
    EXPECT_GT(rm.avgReadLatency, 0.0);
    EXPECT_LE(rm.l1MissRate, 1.0);
    EXPECT_GE(rm.l1MissRate, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, AllDesignsTest,
    ::testing::Values(baselineDesign(), privateDcl1(80), privateDcl1(40),
                      privateDcl1(20), privateDcl1(10), sharedDcl1(40),
                      clusteredDcl1(40, 5), clusteredDcl1(40, 10),
                      clusteredDcl1(40, 20), clusteredDcl1(40, 10, true),
                      cdxbarDesign(false, false),
                      cdxbarDesign(true, true)),
    [](const ::testing::TestParamInfo<DesignConfig> &info) {
        std::string name = info.param.name;
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

/**
 * One crossbar-geometry decision: the crossbars a GpuSystem builds are
 * exactly the inventory the NoC area/power/energy model prices,
 * expanded by count, at the same NoC levels; and RunMetrics' per-level
 * flit counts sum exactly those levels' crossbars.
 */
class NocGeometryTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(NocGeometryTest, BuiltCrossbarsMatchInventory)
{
    const SystemConfig sys;
    const DesignConfig d = designByName(GetParam());
    using Key = std::tuple<std::uint32_t, std::uint32_t, double,
                           std::uint32_t>;
    std::multiset<Key> inventory;
    for (const XbarGeometry &g : crossbarInventory(d, sys))
        for (std::uint32_t i = 0; i < g.count; ++i)
            inventory.insert(
                {g.numInputs, g.numOutputs, g.clockRatio, g.level});

    GpuSystem gpu(sys, d, sharedHeavyApp());
    std::multiset<Key> built;
    for (const auto &net : gpu.nets()) {
        for (const noc::Net::Member &m : net->xbars()) {
            const noc::XbarParams &p = m.xbar->params();
            built.insert({p.numInputs, p.numOutputs, p.clockRatio, m.level});
        }
    }
    EXPECT_EQ(built, inventory);

    gpu.run(2000, 500);
    std::uint64_t flits[3] = {};
    for (const auto &net : gpu.nets())
        for (const noc::Net::Member &m : net->xbars())
            flits[m.level] += m.xbar->totalFlits();
    const RunMetrics rm = gpu.metrics();
    EXPECT_EQ(rm.noc1Flits, flits[1]);
    EXPECT_EQ(rm.noc2Flits, flits[2]);
    EXPECT_GT(rm.noc2Flits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, NocGeometryTest,
    ::testing::Values("Baseline", "CDXBar", "CDXBar+2xNoC1",
                      "CDXBar+2xNoC", "Pr80", "Pr40", "Pr20", "Pr10",
                      "Sh40", "Sh40+C5", "Sh40+C10", "Sh40+C20",
                      "Sh40+C10+Boost"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

/**
 * Seeded geometry fuzz of the front door. On random platforms (1..160
 * cores, L2 slices and DRAM channels, divisible or not) every design
 * family either stops with fatal() or builds a machine whose crossbars
 * are, in order, the ones crossbarInventory() lists, and that runs and
 * drains clean. A panic() anywhere is a simulator bug.
 */
TEST(NocGeometryFuzz, RandomPlatformsRefuseOrDrain)
{
    workload::WorkloadParams app = sharedHeavyApp();
    app.warpsPerCore = 2;
    Rng rng(0xf022);
    auto upTo = [&rng](std::uint32_t n) {
        return 1 + static_cast<std::uint32_t>(rng.below(n));
    };
    // Mostly a divisor of n (a buildable design), sometimes anything.
    auto divisorOr = [&](std::uint32_t n) {
        if (n == 0 || rng.chance(0.25))
            return static_cast<std::uint32_t>(rng.below(161));
        std::uint32_t d = upTo(n);
        while (n % d != 0)
            d = upTo(n);
        return d;
    };
    using Key = std::tuple<std::uint32_t, std::uint32_t, double,
                          std::uint32_t>;

    std::uint32_t built = 0;
    std::uint32_t refused = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const std::uint32_t slices = upTo(160);
        SystemConfig sys = SystemConfig::scaled(upTo(160), slices,
                                                divisorOr(slices));
        sys.seed = seed;
        const std::uint32_t y = divisorOr(sys.numCores);
        DesignConfig d;
        switch (rng.below(5)) {
          case 0:
            d = baselineDesign();
            break;
          case 1:
            d = designByName(
                std::array{"CDXBar", "CDXBar+2xNoC1",
                           "CDXBar+2xNoC"}[rng.below(3)]);
            break;
          case 2:
            d = privateDcl1(y);
            break;
          case 3:
            d = sharedDcl1(y);
            break;
          default:
            d = clusteredDcl1(y, divisorOr(y), rng.chance(0.5));
            break;
        }
        SCOPED_TRACE(d.name + " on " + sys.summary());

        SimErrorTrap trap;
        std::unique_ptr<GpuSystem> gpu;
        try {
            gpu = std::make_unique<GpuSystem>(sys, d, app);
        } catch (const SimAbort &e) {
            EXPECT_FALSE(e.isPanic) << e.what();
            ++refused;
            continue;
        }
        try {
            std::vector<Key> inventory;
            for (const XbarGeometry &g : crossbarInventory(d, sys))
                for (std::uint32_t i = 0; i < g.count; ++i)
                    inventory.emplace_back(g.numInputs, g.numOutputs,
                                           g.clockRatio, g.level);
            std::vector<Key> crossbars;
            for (const auto &net : gpu->nets())
                for (const noc::Net::Member &m : net->xbars())
                    crossbars.emplace_back(m.xbar->params().numInputs,
                                           m.xbar->params().numOutputs,
                                           m.xbar->params().clockRatio,
                                           m.level);
            EXPECT_EQ(crossbars, inventory);
            gpu->run(300);
            EXPECT_GT(gpu->metrics().instructions, 0u);
            EXPECT_TRUE(gpu->drain());
        } catch (const SimAbort &e) {
            ADD_FAILURE() << e.what();
        }
        ++built;
    }
    // The seed reaches both outcomes often.
    EXPECT_GT(built, 50u);
    EXPECT_GT(refused, 50u);
}

TEST(GpuSystem, SharedEliminatesReplication)
{
    // The defining property of ShY: one home per line -> no copies.
    const RunMetrics rm = runSmall(sharedDcl1(40));
    EXPECT_DOUBLE_EQ(rm.replicationRatio, 0.0);
    EXPECT_LE(rm.avgReplicas, 1.0 + 1e-9);
}

TEST(GpuSystem, ClusteredBoundsReplicas)
{
    // Sh40+C10 allows at most one copy per cluster (10 total).
    GpuSystem gpu(SystemConfig(), clusteredDcl1(40, 10),
                  sharedHeavyApp());
    gpu.run(4000, 6000);
    const RunMetrics rm = gpu.metrics();
    EXPECT_LE(rm.avgReplicas, 10.0 + 1e-9);
    // And the directory never sees more than 10 copies of any line.
    auto &tracker = gpu.tracker();
    for (LineAddr l = 0; l < 800; ++l)
        EXPECT_LE(tracker.copies(l), 10u);
}

TEST(GpuSystem, PrivateAllowsWideReplication)
{
    const RunMetrics base = runSmall(baselineDesign());
    const RunMetrics shared = runSmall(sharedDcl1(40));
    EXPECT_GT(base.replicationRatio, 0.3);
    EXPECT_LT(shared.l1MissRate, base.l1MissRate);
}

TEST(GpuSystem, PerfectL1HasNoMisses)
{
    workload::WorkloadParams p = sharedHeavyApp();
    p.writeFrac = 0.0; // writes always travel downstream (write-evict)
    const RunMetrics rm =
        runSmall(withPerfectL1(baselineDesign()), p);
    EXPECT_DOUBLE_EQ(rm.l1MissRate, 0.0);
}

TEST(GpuSystem, PerfectDcL1HasNoReadMisses)
{
    const RunMetrics rm =
        runSmall(withPerfectL1(clusteredDcl1(40, 10)));
    // Writes still go downstream under write-evict; read misses are 0,
    // so the rate is bounded by the write fraction.
    EXPECT_LT(rm.l1MissRate, 0.1);
}

TEST(GpuSystem, BiggerCacheLowersMissRate)
{
    // Footprint (300 lines) exceeds one L1 (128 lines) but fits the
    // 16x cache; the warmup must touch the whole footprint.
    workload::WorkloadParams p = sharedHeavyApp();
    p.sharedLines = 300;
    p.sharedFrac = 1.0;
    GpuSystem base_gpu(SystemConfig(), baselineDesign(), p);
    base_gpu.run(4000, 12000);
    GpuSystem big_gpu(SystemConfig(),
                      withCapacityScale(baselineDesign(), 16.0), p);
    big_gpu.run(4000, 12000);
    EXPECT_LT(big_gpu.metrics().l1MissRate,
              base_gpu.metrics().l1MissRate * 0.7);
}

TEST(GpuSystem, Deterministic)
{
    const RunMetrics a = runSmall(clusteredDcl1(40, 10, true));
    const RunMetrics b = runSmall(clusteredDcl1(40, 10, true));
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.noc1Flits, b.noc1Flits);
}

TEST(GpuSystem, SeedChangesOutcome)
{
    SystemConfig s1, s2;
    s2.seed = 999;
    const RunMetrics a =
        runSmall(baselineDesign(), sharedHeavyApp(), s1);
    const RunMetrics b =
        runSmall(baselineDesign(), sharedHeavyApp(), s2);
    EXPECT_NE(a.instructions, b.instructions);
}

TEST(GpuSystem, ScaledSystemRuns)
{
    // The 120-core Sh60+C10 sensitivity configuration (Sec. VIII-A).
    SystemConfig sys = SystemConfig::scaled(120, 48, 24);
    const RunMetrics rm =
        runSmall(clusteredDcl1(60, 10, true), sharedHeavyApp(), sys);
    EXPECT_GT(rm.ipc, 0.0);
}

TEST(GpuSystem, LatencyIncludesL1Latency)
{
    const RunMetrics rm = runSmall(baselineDesign());
    EXPECT_GE(rm.avgReadLatency, 28.0);
}

TEST(GpuSystem, DcL1LatencyExceedsBaselineForHits)
{
    // Decoupling adds core<->DC-L1 communication latency (Sec. VIII).
    workload::WorkloadParams p = sharedHeavyApp();
    p.sharedLines = 200; // fits everywhere: hit-dominated
    p.memRatio = 0.1;    // low load: pure latency comparison
    const RunMetrics base = runSmall(baselineDesign(), p);
    const RunMetrics dc = runSmall(clusteredDcl1(40, 10), p);
    EXPECT_GT(dc.avgReadLatency, base.avgReadLatency);
}

TEST(GpuSystem, NocFlitsAccounted)
{
    const RunMetrics base = runSmall(baselineDesign());
    EXPECT_EQ(base.noc1Flits, 0u);
    EXPECT_GT(base.noc2Flits, 0u);
    const RunMetrics dc = runSmall(clusteredDcl1(40, 10));
    EXPECT_GT(dc.noc1Flits, 0u);
    EXPECT_GT(dc.noc2Flits, 0u);
}

TEST(GpuSystem, DistributedCtaReducesReplication)
{
    const RunMetrics rr = runSmall(baselineDesign());
    const RunMetrics dist =
        runSmall(withDistributedCta(baselineDesign()));
    EXPECT_LT(dist.replicationRatio, rr.replicationRatio);
}

TEST(GpuSystem, DrainsCleanly)
{
    // Request conservation: after gating issue, every in-flight
    // request completes and every queue empties.
    for (const auto &d :
         {baselineDesign(), clusteredDcl1(40, 10, true),
          cdxbarDesign(false, false)}) {
        GpuSystem gpu(SystemConfig(), d, sharedHeavyApp());
        gpu.run(1500, 1500);
        EXPECT_TRUE(gpu.drain()) << d.name;
        EXPECT_FALSE(gpu.busy()) << d.name;
    }
}

TEST(GpuSystem, DumpStatsContainsComponents)
{
    GpuSystem gpu(SystemConfig(), clusteredDcl1(40, 10),
                  sharedHeavyApp());
    gpu.run(1000, 1000);
    std::ostringstream os;
    gpu.dumpStats(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("gpu.core0.instructions"), std::string::npos);
    EXPECT_NE(out.find("gpu.node0.dcl1.accesses"), std::string::npos);
    EXPECT_NE(out.find("gpu.replication.misses"), std::string::npos);
    EXPECT_NE(out.find("gpu.dram0.reads"), std::string::npos);
    EXPECT_NE(out.find("gpu.noc1.req0.packets"), std::string::npos);
}

TEST(GpuSystem, FullLineRepliesMoveMoreNoc1Flits)
{
    // Ablating the paper's Sec. III "only requested data" choice must
    // inflate NoC#1 traffic for the same work.
    const RunMetrics sector = runSmall(clusteredDcl1(40, 10));
    const RunMetrics full =
        runSmall(withFullLineReplies(clusteredDcl1(40, 10)));
    const double sector_fpi =
        double(sector.noc1Flits) / double(sector.instructions);
    const double full_fpi =
        double(full.noc1Flits) / double(full.instructions);
    EXPECT_GT(full_fpi, 1.5 * sector_fpi);
}

TEST(GpuSystem, ReplacementPolicyKnobChangesBehaviour)
{
    workload::WorkloadParams p = sharedHeavyApp();
    p.sharedLines = 200; // near-capacity: policy matters
    SystemConfig lru_sys, rnd_sys;
    rnd_sys.l1Repl = mem::ReplPolicy::Random;
    GpuSystem lru(lru_sys, baselineDesign(), p);
    lru.run(3000, 6000);
    GpuSystem rnd(rnd_sys, baselineDesign(), p);
    rnd.run(3000, 6000);
    EXPECT_NE(lru.metrics().l1Misses, rnd.metrics().l1Misses);
}

TEST(GpuSystem, TraceSourceInjection)
{
    std::istringstream trace("0 0 R 1000 32\n"
                             "0 0 X 4\n"
                             "1 0 R 2000 32\n");
    workload::WorkloadParams shell;
    shell.name = "trace";
    GpuSystem gpu(SystemConfig(), baselineDesign(), shell,
                  std::make_unique<workload::TraceFileSource>(trace, 80));
    gpu.run(500, 500);
    EXPECT_GT(gpu.metrics().instructions, 0u);
    EXPECT_GT(gpu.metrics().l1Accesses, 0u);
}

TEST(GpuSystem, TickOnceAdvancesCycle)
{
    GpuSystem gpu(SystemConfig(), baselineDesign(), sharedHeavyApp());
    const Cycle before = gpu.cycle();
    gpu.tickOnce();
    EXPECT_EQ(gpu.cycle(), before + 1);
}

TEST(GpuSystem, MetricsAfterResetCoverOnlyInterval)
{
    GpuSystem gpu(SystemConfig(), baselineDesign(), sharedHeavyApp());
    gpu.run(2000, 2000);
    const RunMetrics rm = gpu.metrics();
    EXPECT_EQ(rm.cycles, 2000u);
}

} // anonymous namespace
