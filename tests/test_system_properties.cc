/**
 * @file
 * Cross-cutting system property sweeps (TEST_P): for random
 * (design, workload-profile, seed) combinations the simulated machine
 * must preserve its core invariants — request conservation via drain,
 * replication bounds of each organization, monotone capacity effects,
 * and determinism.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/gpu_system.hh"
#include "workload/app_catalog.hh"
#include "workload/workload.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::core;

/** (clusters selector, workload profile id, seed) */
using Param = std::tuple<int, int, int>;

DesignConfig
designFor(int id)
{
    switch (id) {
      case 0:
        return baselineDesign();
      case 1:
        return privateDcl1(40);
      case 2:
        return sharedDcl1(40);
      case 3:
        return clusteredDcl1(40, 10);
      case 4:
        return clusteredDcl1(40, 10, true);
      default:
        return clusteredDcl1(40, 20);
    }
}

workload::WorkloadParams
profileFor(int id)
{
    workload::WorkloadParams p;
    p.name = "prop" + std::to_string(id);
    p.warpsPerCore = 16;
    switch (id) {
      case 0: // shared-heavy, replication-prone
        p.memRatio = 0.4;
        p.sharedLines = 700;
        p.sharedFrac = 0.9;
        break;
      case 1: // private streaming
        p.memRatio = 0.2;
        p.privateLines = 3000;
        break;
      case 2: // camping hot-cold with writes
        p.memRatio = 0.4;
        p.sharedLines = 300;
        p.sharedFrac = 0.6;
        p.sharedPattern = workload::Pattern::HotCold;
        p.hotLines = 8;
        p.hotProb = 0.8;
        p.writeFrac = 0.15;
        break;
      default: // mixed with atomics/bypass
        p.memRatio = 0.5;
        p.sharedLines = 1000;
        p.sharedFrac = 0.5;
        p.privateLines = 500;
        p.atomicFrac = 0.03;
        p.bypassFrac = 0.03;
        p.coalescedAccesses = 3;
        break;
    }
    return p;
}

class SystemPropertyTest : public ::testing::TestWithParam<Param>
{
};

TEST_P(SystemPropertyTest, InvariantsHold)
{
    const auto [design_id, profile_id, seed] = GetParam();
    const DesignConfig design = designFor(design_id);
    const workload::WorkloadParams app = profileFor(profile_id);
    SystemConfig sys;
    sys.seed = static_cast<std::uint64_t>(seed);

    GpuSystem gpu(sys, design, app);
    gpu.run(2500, 2500);
    const RunMetrics rm = gpu.metrics();

    // Progress and sane rates.
    EXPECT_GT(rm.instructions, 0u);
    EXPECT_LE(rm.ipc, double(sys.numCores));
    EXPECT_GE(rm.l1MissRate, 0.0);
    EXPECT_LE(rm.l1MissRate, 1.0);
    EXPECT_GE(rm.avgReadLatency, 1.0);

    // Organization-specific replication bounds.
    if (design.topology == Topology::DcL1) {
        const std::uint32_t max_copies = design.clusters;
        auto &tracker = gpu.tracker();
        for (LineAddr l = 0; l < 64; ++l)
            EXPECT_LE(tracker.copies(l), max_copies) << design.name;
        if (design.clusters == 1) {
            EXPECT_DOUBLE_EQ(rm.replicationRatio, 0.0);
        }
    }

    // Request conservation: everything in flight completes.
    EXPECT_TRUE(gpu.drain(300000)) << design.name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SystemPropertyTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5),
                       ::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1, 7)));

/** Determinism across the whole grid: rerunning a cell matches. */
TEST(SystemPropertyExtra, GridDeterminism)
{
    for (int design_id : {0, 2, 4}) {
        SystemConfig sys;
        sys.seed = 5;
        auto once = [&]() {
            GpuSystem gpu(sys, designFor(design_id), profileFor(3));
            gpu.run(1500, 1500);
            return gpu.metrics();
        };
        const RunMetrics a = once();
        const RunMetrics b = once();
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.l1Misses, b.l1Misses);
        EXPECT_EQ(a.noc2Flits, b.noc2Flits);
        EXPECT_EQ(a.dramReads, b.dramReads);
    }
}

/**
 * The replication directory counts each L1 read miss once. F-2MM
 * camps on a few lines, so MSHR target lists fill up and the L1 keeps
 * retrying blocked reads; a retry is the same miss, not a new one.
 */
TEST(SystemPropertyExtra, DirectoryCountsEachReadMissOnce)
{
    GpuSystem gpu(SystemConfig(), baselineDesign(),
                  workload::appByName("F-2MM").params);
    gpu.run(5000, 5000);
    std::uint64_t read_misses = 0;
    for (const auto &core : gpu.cores())
        read_misses += core->l1()->readMisses();
    EXPECT_GT(read_misses, 0u);
    EXPECT_EQ(gpu.tracker().totalMisses(), read_misses);
}

/** Capacity monotonicity: more L1 never hurts the miss count much. */
TEST(SystemPropertyExtra, CapacityMonotoneOnCapacitySensitiveApp)
{
    workload::WorkloadParams p = profileFor(0);
    double prev = 1.1;
    for (double scale : {1.0, 4.0, 16.0}) {
        DesignConfig d = baselineDesign();
        if (scale != 1.0)
            d = withCapacityScale(d, scale);
        GpuSystem gpu(SystemConfig(), d, p);
        gpu.run(3000, 10000);
        const double mr = gpu.metrics().l1MissRate;
        EXPECT_LE(mr, prev + 0.05) << scale;
        prev = mr;
    }
}

} // anonymous namespace
