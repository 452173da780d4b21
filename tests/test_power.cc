/**
 * @file
 * Tests for the DSENT-like NoC model and CACTI-like cache area model,
 * checked against the paper's published relative numbers.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/design.hh"
#include "power/cache_model.hh"
#include "power/energy_model.hh"
#include "power/xbar_model.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::core;
using namespace dcl1::power;

double
areaOf(const DesignConfig &d)
{
    SystemConfig sys;
    XbarModel model;
    return model.cost(crossbarInventory(d, sys)).areaMm2;
}

double
powerOf(const DesignConfig &d)
{
    SystemConfig sys;
    XbarModel model;
    return model.cost(crossbarInventory(d, sys)).staticPowerW;
}

TEST(XbarModel, Fig6PrivateAreaTrend)
{
    const double base = areaOf(baselineDesign());
    // Paper Fig. 6: Pr80 ~= baseline; Pr40 -28 %; Pr20 -54 %; Pr10 -67 %.
    EXPECT_NEAR(areaOf(privateDcl1(80)) / base, 1.0, 0.1);
    EXPECT_NEAR(areaOf(privateDcl1(40)) / base, 0.72, 0.08);
    EXPECT_NEAR(areaOf(privateDcl1(20)) / base, 0.46, 0.08);
    EXPECT_NEAR(areaOf(privateDcl1(10)) / base, 0.33, 0.08);
}

TEST(XbarModel, Sh40AreaOverhead)
{
    // Paper Sec. V-B: Sh40 -> +69 % NoC area.
    const double ratio = areaOf(sharedDcl1(40)) / areaOf(baselineDesign());
    EXPECT_NEAR(ratio, 1.69, 0.15);
}

TEST(XbarModel, Fig12ClusteredAreaSavings)
{
    const double base = areaOf(baselineDesign());
    // Paper Fig. 12: C5 -45 %, C10 -50 %, C20 -45 %.
    EXPECT_NEAR(areaOf(clusteredDcl1(40, 5)) / base, 0.55, 0.08);
    EXPECT_NEAR(areaOf(clusteredDcl1(40, 10)) / base, 0.50, 0.08);
    EXPECT_NEAR(areaOf(clusteredDcl1(40, 20)) / base, 0.55, 0.08);
}

TEST(XbarModel, StaticPowerTrends)
{
    const double base = powerOf(baselineDesign());
    // Paper: Pr40 -4 %, Sh40 +57 %, C10 -16 % (we accept +-10 pts).
    EXPECT_NEAR(powerOf(privateDcl1(40)) / base, 0.96, 0.10);
    EXPECT_GT(powerOf(sharedDcl1(40)) / base, 1.4);
    EXPECT_NEAR(powerOf(clusteredDcl1(40, 10)) / base, 0.84, 0.10);
    // Pr20 and Pr10 reduce static power more than Pr40 (Sec. IV-B).
    EXPECT_LT(powerOf(privateDcl1(20)), powerOf(privateDcl1(40)));
    EXPECT_LT(powerOf(privateDcl1(10)), powerOf(privateDcl1(20)));
}

TEST(XbarModel, Fig13bMaxFrequency)
{
    XbarModel model;
    const double f_base = model.maxFrequencyGHz(80, 32);
    const double f_sh40 = model.maxFrequencyGHz(80, 40);
    const double f_cluster = model.maxFrequencyGHz(8, 4);
    const double f_pr40 = model.maxFrequencyGHz(2, 1);
    // Paper Fig. 13b: 80x32 and 80x40 cannot run at 2x 700 MHz; the
    // small 8x4 and 2x1 crossbars can.
    EXPECT_LT(f_base, 1.4);
    EXPECT_LT(f_sh40, 1.4);
    EXPECT_GT(f_cluster, 1.4);
    EXPECT_GT(f_pr40, f_cluster);
    EXPECT_GT(f_cluster, f_sh40);
}

TEST(XbarModel, FlitEnergyGrowsWithSizeAndLength)
{
    XbarModel model;
    XbarGeometry small{8, 4, 1, 1.0, 3.3, 1};
    XbarGeometry big{80, 32, 1, 0.5, 12.3, 2};
    EXPECT_GT(model.flitEnergyPj(big), model.flitEnergyPj(small));
}

/**
 * Every preset's priced interconnect, pinned: the crossbars as a
 * multiset of (inputs, outputs, count, clock ratio, link mm, level),
 * and XbarModel's area and static power as exact doubles. Figs. 6, 12
 * and 18 and Table I read these numbers.
 */
TEST(XbarModel, PresetInventoriesArePinned)
{
    using Entry = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                             double, double, std::uint32_t>;
    struct Pin
    {
        const char *design;
        std::multiset<Entry> inventory;
        double areaMm2;
        double staticPowerW;
    };
    const Pin pins[] = {
        {"Baseline",
         {{80, 32, 1, 0.5, 12.3, 2}, {32, 80, 1, 0.5, 12.3, 2}},
         0x1.ffff29406b2a2p-1, 0x1.9b3d07c84b5ddp+0},
        {"CDXBar",
         {{8, 4, 10, 0.5, 3.3, 1}, {4, 8, 10, 0.5, 3.3, 1},
          {40, 32, 1, 0.5, 12.3, 2}, {32, 40, 1, 0.5, 12.3, 2}},
         0x1.9f1e3dd8a8a32p-1, 0x1.a36e2eb1c432ep+0},
        {"CDXBar+2xNoC1",
         {{8, 4, 10, 1.0, 3.3, 1}, {4, 8, 10, 1.0, 3.3, 1},
          {40, 32, 1, 0.5, 12.3, 2}, {32, 40, 1, 0.5, 12.3, 2}},
         0x1.9f1e3dd8a8a32p-1, 0x1.a36e2eb1c432ep+0},
        {"CDXBar+2xNoC",
         {{8, 4, 10, 1.0, 3.3, 1}, {4, 8, 10, 1.0, 3.3, 1},
          {40, 32, 1, 1.0, 12.3, 2}, {32, 40, 1, 1.0, 12.3, 2}},
         0x1.9f1e3dd8a8a32p-1, 0x1.a36e2eb1c432ep+0},
        {"Pr80",
         {{1, 1, 80, 0.5, 3.3, 1}, {1, 1, 80, 0.5, 3.3, 1},
          {80, 32, 1, 0.5, 12.3, 2}, {32, 80, 1, 0.5, 12.3, 2}},
         0x1.0f97826824ac8p+0, 0x1.d07c84b5dcc64p+0},
        {"Pr40",
         {{2, 1, 40, 0.5, 3.3, 1}, {1, 2, 40, 0.5, 3.3, 1},
          {40, 32, 1, 0.5, 12.3, 2}, {32, 40, 1, 0.5, 12.3, 2}},
         0x1.774e1536c8e9ep-1, 0x1.8adab9f559b3ep+0},
        {"Pr20",
         {{4, 1, 20, 0.5, 3.3, 1}, {1, 4, 20, 0.5, 3.3, 1},
          {20, 32, 1, 0.5, 12.3, 2}, {32, 20, 1, 0.5, 12.3, 2}},
         0x1.dbe64543d6ef6p-2, 0x1.141205bc01a37p+0},
        {"Pr10",
         {{8, 1, 10, 0.5, 3.3, 1}, {1, 8, 10, 0.5, 3.3, 1},
          {10, 32, 1, 0.5, 12.3, 2}, {32, 10, 1, 0.5, 12.3, 2}},
         0x1.528b52aef97d3p-2, 0x1.b15b573eab369p-1},
        {"Sh40",
         {{80, 40, 1, 0.5, 3.3, 1}, {40, 80, 1, 0.5, 3.3, 1},
          {40, 32, 1, 0.5, 12.3, 2}, {32, 40, 1, 0.5, 12.3, 2}},
         0x1.be7012b792a8ep+0, 0x1.652bd3c361134p+1},
        {"Sh40+C5",
         {{16, 8, 5, 0.5, 3.3, 1}, {8, 16, 5, 0.5, 3.3, 1},
          {5, 4, 8, 0.5, 12.3, 2}, {4, 5, 8, 0.5, 12.3, 2}},
         0x1.1a686112698f2p-1, 0x1.5182a9930be0fp+0},
        {"Sh40+C10",
         {{8, 4, 10, 0.5, 3.3, 1}, {4, 8, 10, 0.5, 3.3, 1},
          {10, 8, 4, 0.5, 12.3, 2}, {8, 10, 4, 0.5, 12.3, 2}},
         0x1.ffbb36a2537c8p-2, 0x1.41205bc01a37p+0},
        {"Sh40+C20",
         {{4, 2, 20, 0.5, 3.3, 1}, {2, 4, 20, 0.5, 3.3, 1},
          {20, 16, 2, 0.5, 12.3, 2}, {16, 20, 2, 0.5, 12.3, 2}},
         0x1.1a686112698f1p-1, 0x1.5182a9930be0ep+0},
        {"Sh40+C10+Boost",
         {{8, 4, 10, 1.0, 3.3, 1}, {4, 8, 10, 1.0, 3.3, 1},
          {10, 8, 4, 0.5, 12.3, 2}, {8, 10, 4, 0.5, 12.3, 2}},
         0x1.ffbb36a2537c8p-2, 0x1.41205bc01a37p+0},
    };
    const SystemConfig sys;
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.design);
        const auto inv = crossbarInventory(designByName(pin.design), sys);
        std::multiset<Entry> got;
        for (const XbarGeometry &g : inv)
            got.insert({g.numInputs, g.numOutputs, g.count, g.clockRatio,
                        g.linkMm, g.level});
        EXPECT_EQ(got, pin.inventory);
        const NocCost cost = XbarModel().cost(inv);
        EXPECT_EQ(cost.areaMm2, pin.areaMm2);
        EXPECT_EQ(cost.staticPowerW, pin.staticPowerW);
    }
}

TEST(CacheModel, Fig18bQueueOverhead)
{
    // Four 4-entry 128 B queues per node over 40 nodes = 6.25 % of the
    // 1.25 MB total L1 capacity (paper Sec. VIII).
    SystemConfig sys;
    CacheAreaModel model;
    const auto dc = model.l1Breakdown(clusteredDcl1(40, 10, true), sys);
    const double total_l1 = 80.0 * 16.0 * 1024.0;
    EXPECT_NEAR(dc.queueArea / total_l1, 0.0625, 1e-9);
}

TEST(CacheModel, Fig18bCacheAreaSavings)
{
    // Aggregating 80 banks into 40 saves ~8 % cache area.
    SystemConfig sys;
    CacheAreaModel model;
    const auto base = model.l1Breakdown(baselineDesign(), sys);
    const auto dc = model.l1Breakdown(clusteredDcl1(40, 10, true), sys);
    EXPECT_EQ(base.banks, 80u);
    EXPECT_EQ(dc.banks, 40u); // "50 % fewer cache ports"
    const double savings = 1.0 - dc.cacheArea / base.cacheArea;
    EXPECT_NEAR(savings, 0.08, 0.04);
}

TEST(EnergyModel, StaticMatchesXbarModel)
{
    SystemConfig sys;
    NocEnergyModel model;
    RunMetrics rm;
    rm.cycles = 10000;
    const auto report =
        model.evaluate(clusteredDcl1(40, 10, true), sys, rm);
    XbarModel xm;
    const double expect =
        xm.cost(crossbarInventory(clusteredDcl1(40, 10, true), sys))
            .staticPowerW;
    EXPECT_DOUBLE_EQ(report.staticPowerW, expect);
    EXPECT_DOUBLE_EQ(report.dynamicPowerW, 0.0); // no flits recorded
}

TEST(EnergyModel, DynamicScalesWithFlits)
{
    SystemConfig sys;
    NocEnergyModel model;
    RunMetrics rm;
    rm.cycles = 10000;
    rm.noc1Flits = 1000;
    rm.noc2Flits = 1000;
    const auto r1 = model.evaluate(clusteredDcl1(40, 10), sys, rm);
    rm.noc1Flits = 2000;
    rm.noc2Flits = 2000;
    const auto r2 = model.evaluate(clusteredDcl1(40, 10), sys, rm);
    EXPECT_NEAR(r2.dynamicPowerW, 2.0 * r1.dynamicPowerW, 1e-12);
    EXPECT_GT(r2.energyUj, r1.energyUj);
}

TEST(EnergyModel, Noc2FlitsCostMoreThanNoc1)
{
    // Long 12.3 mm links and big crossbars make NoC#2 flits pricier.
    SystemConfig sys;
    NocEnergyModel model;
    RunMetrics a, b;
    a.cycles = b.cycles = 1000;
    a.noc1Flits = 1000;
    b.noc2Flits = 1000;
    const auto ra = model.evaluate(clusteredDcl1(40, 10), sys, a);
    const auto rb = model.evaluate(clusteredDcl1(40, 10), sys, b);
    EXPECT_GT(rb.dynamicPowerW, ra.dynamicPowerW);
}

} // anonymous namespace
