/** @file Tests for design presets and the crossbar inventory (Table I). */

#include <gtest/gtest.h>

#include "core/design.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::core;

TEST(Design, PresetNames)
{
    EXPECT_EQ(baselineDesign().name, "Baseline");
    EXPECT_EQ(privateDcl1(40).name, "Pr40");
    EXPECT_EQ(sharedDcl1(40).name, "Sh40");
    EXPECT_EQ(clusteredDcl1(40, 10).name, "Sh40+C10");
    EXPECT_EQ(clusteredDcl1(40, 10, true).name, "Sh40+C10+Boost");
    EXPECT_EQ(clusteredDcl1(40, 1).name, "Sh40");
    EXPECT_EQ(clusteredDcl1(40, 40).name, "Pr40");
    EXPECT_EQ(cdxbarDesign(false, false).name, "CDXBar");
    EXPECT_EQ(cdxbarDesign(true, false).name, "CDXBar+2xNoC1");
    EXPECT_EQ(cdxbarDesign(true, true).name, "CDXBar+2xNoC");
}

TEST(Design, BoostDoublesNoc1Clock)
{
    const DesignConfig d = clusteredDcl1(40, 10, true);
    EXPECT_DOUBLE_EQ(d.noc1ClockRatio, 1.0);
    EXPECT_DOUBLE_EQ(d.noc2ClockRatio, 0.5); // NoC#2 kept at baseline
}

TEST(Design, Geometry)
{
    SystemConfig sys;
    const DesignConfig d = clusteredDcl1(40, 10);
    EXPECT_EQ(d.coresPerNode(sys), 2u);
    EXPECT_EQ(d.nodesPerCluster(), 4u);
    EXPECT_EQ(d.coresPerCluster(sys), 8u);
}

TEST(Design, DcL1CapacityAggregation)
{
    SystemConfig sys;
    // Pr40 doubles per-node capacity, preserving the total.
    EXPECT_EQ(privateDcl1(40).l1SizeFor(sys), 32u * 1024u);
    EXPECT_EQ(privateDcl1(80).l1SizeFor(sys), 16u * 1024u);
    EXPECT_EQ(privateDcl1(10).l1SizeFor(sys), 128u * 1024u);
    EXPECT_EQ(baselineDesign().l1SizeFor(sys), 16u * 1024u);
    EXPECT_EQ(withCapacityScale(baselineDesign(), 16.0).l1SizeFor(sys),
              256u * 1024u);
}

TEST(Design, DcL1LatencyGrowsWithAggregation)
{
    SystemConfig sys; // base L1 latency 28
    // 2x capacity -> ~+7 %: the paper's 30 cycles.
    EXPECT_EQ(privateDcl1(40).l1LatencyFor(sys), 30u);
    EXPECT_EQ(privateDcl1(80).l1LatencyFor(sys), 28u);
    EXPECT_GT(privateDcl1(10).l1LatencyFor(sys), 30u);
    EXPECT_EQ(baselineDesign().l1LatencyFor(sys), 28u);
}

TEST(Design, LatencyOverride)
{
    SystemConfig sys;
    EXPECT_EQ(withL1Latency(clusteredDcl1(40, 10), 0).l1LatencyFor(sys),
              0u);
    EXPECT_EQ(withL1Latency(baselineDesign(), 64).l1LatencyFor(sys), 64u);
}

TEST(Design, ValidateRejectsBadGeometry)
{
    SystemConfig sys;
    DesignConfig d = clusteredDcl1(33, 3); // 80 % 33 != 0
    EXPECT_EXIT(d.validate(sys), ::testing::ExitedWithCode(1),
                "not divisible");
    DesignConfig d2 = clusteredDcl1(40, 3); // 40 % 3 != 0
    EXPECT_EXIT(d2.validate(sys), ::testing::ExitedWithCode(1),
                "not divisible");
    DesignConfig d3 = clusteredDcl1(0, 1); // zero nodes
    EXPECT_EXIT(d3.validate(sys), ::testing::ExitedWithCode(1),
                "nonzero");
    DesignConfig d4 = baselineDesign();
    d4.noc2ClockRatio = 0.0; // a clockless crossbar moves nothing
    EXPECT_EXIT(d4.validate(sys), ::testing::ExitedWithCode(1),
                "clock ratios must be positive");
    DesignConfig d5 = cdxbarDesign(false, false);
    d5.noc1ClockRatio = 0.0; // CDXBar's local stages run on this clock
    EXPECT_EXIT(d5.validate(sys), ::testing::ExitedWithCode(1),
                "clock ratios must be positive");
}

TEST(Design, PlatformValidateAcceptsTheTable2Machine)
{
    SystemConfig sys;
    sys.validate(); // must not die
    SystemConfig scaled = SystemConfig::scaled(120, 48, 24);
    scaled.validate();
}

TEST(Design, PlatformValidateRejectsImpossibleConfigs)
{
    // Front-door rejection: each impossible platform dies with a
    // config error (exit 1) at validation, not a mid-run panic.
    SystemConfig zero_cores;
    zero_cores.numCores = 0;
    EXPECT_EXIT(zero_cores.validate(), ::testing::ExitedWithCode(1),
                "must be nonzero");

    SystemConfig zero_ways;
    zero_ways.l1Assoc = 0;
    EXPECT_EXIT(zero_ways.validate(), ::testing::ExitedWithCode(1),
                "associativity is zero");

    SystemConfig zero_sets;
    zero_sets.l1SizeBytes = 256; // 256 / (128 * 4) == 0 sets
    EXPECT_EXIT(zero_sets.validate(), ::testing::ExitedWithCode(1),
                "zero sets");

    SystemConfig odd_sets;
    odd_sets.l1SizeBytes = 24 * 1024; // 48 sets: not a power of two
    EXPECT_EXIT(odd_sets.validate(), ::testing::ExitedWithCode(1),
                "not a power of two");

    SystemConfig bad_flits;
    bad_flits.flitBytes = 48; // 128 % 48 != 0
    EXPECT_EXIT(bad_flits.validate(), ::testing::ExitedWithCode(1),
                "do not divide");

    SystemConfig zero_mshrs;
    zero_mshrs.l2Mshrs = 0;
    EXPECT_EXIT(zero_mshrs.validate(), ::testing::ExitedWithCode(1),
                "MSHR geometry");

    SystemConfig zero_queue;
    zero_queue.nodeQueueCap = 0;
    EXPECT_EXIT(zero_queue.validate(), ::testing::ExitedWithCode(1),
                "queue capacity");

    // Chunks wider than a DRAM row give rows of zero chunks, and the
    // channel-local row address would divide by zero.
    SystemConfig wide_chunks;
    wide_chunks.chunkBytes = 4096; // a multiple of the line, > 2048 B rows
    EXPECT_EXIT(wide_chunks.validate(), ::testing::ExitedWithCode(1),
                "DRAM rows");

    SystemConfig odd_rows;
    odd_rows.dram.rowBytes = 2048 + 128; // not a multiple of 256 B chunks
    EXPECT_EXIT(odd_rows.validate(), ::testing::ExitedWithCode(1),
                "DRAM rows");

    SystemConfig zero_rows;
    zero_rows.dram.rowBytes = 0;
    EXPECT_EXIT(zero_rows.validate(), ::testing::ExitedWithCode(1),
                "DRAM rows");

    SystemConfig zero_banks;
    zero_banks.dram.numBanks = 0;
    EXPECT_EXIT(zero_banks.validate(), ::testing::ExitedWithCode(1),
                "DRAM banks");

    SystemConfig zero_dram_queue;
    zero_dram_queue.dram.queueCap = 0;
    EXPECT_EXIT(zero_dram_queue.validate(), ::testing::ExitedWithCode(1),
                "DRAM banks");
}

TEST(Design, DesignByName)
{
    EXPECT_EQ(designByName("Baseline").topology,
              Topology::PrivateBaseline);
    EXPECT_EQ(designByName("Pr40").clusters, 40u);
    EXPECT_EQ(designByName("Sh40").clusters, 1u);
    const DesignConfig c10 = designByName("Sh40+C10");
    EXPECT_EQ(c10.numNodes, 40u);
    EXPECT_EQ(c10.clusters, 10u);
    EXPECT_DOUBLE_EQ(c10.noc1ClockRatio, 0.5);
    const DesignConfig boost = designByName("Sh40+C10+Boost");
    EXPECT_DOUBLE_EQ(boost.noc1ClockRatio, 1.0);
    EXPECT_EQ(designByName("CDXBar+2xNoC").noc2ClockRatio, 1.0);
    EXPECT_EQ(designByName("CDXBar+2xNoC1").noc1ClockRatio, 1.0);
    EXPECT_EQ(designByName("CDXBar+2xNoC1").noc2ClockRatio, 0.5);
    EXPECT_EXIT(designByName("Sh40+Boost"), ::testing::ExitedWithCode(1),
                "cluster count");
    EXPECT_EXIT(designByName("nonsense"), ::testing::ExitedWithCode(1),
                "unknown design");
    EXPECT_EXIT(designByName("PrXY"), ::testing::ExitedWithCode(1),
                "bad design name");
}

TEST(Design, NameRoundTrip)
{
    // designByName(preset.name) reproduces the preset.
    for (const auto &d :
         {baselineDesign(), privateDcl1(40), sharedDcl1(40),
          clusteredDcl1(40, 10), clusteredDcl1(40, 10, true),
          cdxbarDesign(true, true)}) {
        const DesignConfig r = designByName(d.name);
        EXPECT_EQ(r.topology, d.topology) << d.name;
        EXPECT_EQ(r.numNodes, d.numNodes) << d.name;
        EXPECT_EQ(r.clusters, d.clusters) << d.name;
        EXPECT_DOUBLE_EQ(r.noc1ClockRatio, d.noc1ClockRatio) << d.name;
    }
}

TEST(Design, FullLineRepliesModifier)
{
    const DesignConfig d =
        withFullLineReplies(clusteredDcl1(40, 10, true));
    EXPECT_TRUE(d.fullLineReplies);
    EXPECT_EQ(d.name, "Sh40+C10+Boost+FullLine");
}

// ---------------- Table I: crossbar inventory ----------------

/** Find the (single) NoC#2-level entry set of an inventory. */
std::vector<XbarGeometry>
levelEntries(const std::vector<XbarGeometry> &inv, std::uint32_t level)
{
    std::vector<XbarGeometry> out;
    for (const auto &g : inv)
        if (g.level == level)
            out.push_back(g);
    return out;
}

TEST(Inventory, BaselineIs80x32)
{
    SystemConfig sys;
    const auto inv = crossbarInventory(baselineDesign(), sys);
    ASSERT_EQ(inv.size(), 2u); // request + reply
    EXPECT_EQ(inv[0].numInputs, 80u);
    EXPECT_EQ(inv[0].numOutputs, 32u);
    EXPECT_EQ(inv[1].numInputs, 32u);
    EXPECT_EQ(inv[1].numOutputs, 80u);
}

TEST(Inventory, Pr80MatchesTable1)
{
    // Table I: Pr80 = direct links in NoC#1 + 80x32 in NoC#2.
    SystemConfig sys;
    const auto inv = crossbarInventory(privateDcl1(80), sys);
    const auto noc1 = levelEntries(inv, 1);
    ASSERT_EQ(noc1.size(), 2u);
    EXPECT_EQ(noc1[0].numInputs, 1u);
    EXPECT_EQ(noc1[0].numOutputs, 1u);
    EXPECT_EQ(noc1[0].count, 80u);
    const auto noc2 = levelEntries(inv, 2);
    EXPECT_EQ(noc2[0].numInputs, 80u);
    EXPECT_EQ(noc2[0].numOutputs, 32u);
}

TEST(Inventory, Pr40MatchesTable1)
{
    // Table I: Pr40 = 40 2x1 crossbars + 40x32.
    SystemConfig sys;
    const auto inv = crossbarInventory(privateDcl1(40), sys);
    const auto noc1 = levelEntries(inv, 1);
    EXPECT_EQ(noc1[0].numInputs, 2u);
    EXPECT_EQ(noc1[0].numOutputs, 1u);
    EXPECT_EQ(noc1[0].count, 40u);
    const auto noc2 = levelEntries(inv, 2);
    EXPECT_EQ(noc2[0].numInputs, 40u);
    EXPECT_EQ(noc2[0].numOutputs, 32u);
}

TEST(Inventory, Sh40UsesFullCrossbars)
{
    // Sec. V: Sh40 = 80x40 in NoC#1 plus 40x32 in NoC#2.
    SystemConfig sys;
    const auto inv = crossbarInventory(sharedDcl1(40), sys);
    const auto noc1 = levelEntries(inv, 1);
    EXPECT_EQ(noc1[0].numInputs, 80u);
    EXPECT_EQ(noc1[0].numOutputs, 40u);
    EXPECT_EQ(noc1[0].count, 1u);
    const auto noc2 = levelEntries(inv, 2);
    EXPECT_EQ(noc2[0].numInputs, 40u);
    EXPECT_EQ(noc2[0].numOutputs, 32u);
}

TEST(Inventory, Sh40C10MatchesPaperFig10)
{
    // Fig. 10: ten 8x4 crossbars in NoC#1; four 10x8 in NoC#2.
    SystemConfig sys;
    const auto inv = crossbarInventory(clusteredDcl1(40, 10), sys);
    const auto noc1 = levelEntries(inv, 1);
    EXPECT_EQ(noc1[0].numInputs, 8u);
    EXPECT_EQ(noc1[0].numOutputs, 4u);
    EXPECT_EQ(noc1[0].count, 10u);
    const auto noc2 = levelEntries(inv, 2);
    EXPECT_EQ(noc2[0].numInputs, 10u);
    EXPECT_EQ(noc2[0].numOutputs, 8u);
    EXPECT_EQ(noc2[0].count, 4u);
}

TEST(Inventory, BoostOnlyChangesClockRatio)
{
    SystemConfig sys;
    const auto plain = crossbarInventory(clusteredDcl1(40, 10), sys);
    const auto boost =
        crossbarInventory(clusteredDcl1(40, 10, true), sys);
    ASSERT_EQ(plain.size(), boost.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].numInputs, boost[i].numInputs);
        EXPECT_EQ(plain[i].numOutputs, boost[i].numOutputs);
        EXPECT_EQ(plain[i].count, boost[i].count);
        if (plain[i].level == 1)
            EXPECT_DOUBLE_EQ(boost[i].clockRatio, 1.0);
        else
            EXPECT_DOUBLE_EQ(boost[i].clockRatio, plain[i].clockRatio);
    }
}

TEST(Inventory, Noc1LinksAreShort)
{
    // Sec. VIII: 3.3 mm cluster links, 12.3 mm NoC#2 links.
    SystemConfig sys;
    for (const auto &g :
         crossbarInventory(clusteredDcl1(40, 10, true), sys)) {
        if (g.level == 1)
            EXPECT_DOUBLE_EQ(g.linkMm, 3.3);
        else
            EXPECT_DOUBLE_EQ(g.linkMm, 12.3);
    }
}

} // anonymous namespace
