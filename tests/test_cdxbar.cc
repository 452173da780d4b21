/** @file Tests for the hierarchical two-stage (CDXBar) network. */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "mem/request.hh"
#include "noc/cdxbar.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::noc;

CdxParams
params(CdxDirection dir)
{
    CdxParams p;
    p.name = "cdx";
    p.direction = dir;
    p.clusters = 4;
    p.perCluster = 8;
    p.trunksPerCluster = 2;
    p.globalPorts = 8;
    p.localClockRatio = 1.0;
    p.globalClockRatio = 1.0;
    return p;
}

mem::MemRequestPtr
tagged(std::uint32_t tag)
{
    auto r = mem::makeRequest(mem::MemOp::Read, tag * 128, 32, tag, 0, 0);
    return r;
}

TEST(CdXbar, GeometryAccessors)
{
    CdXbarNet net(params(CdxDirection::Concentrate));
    EXPECT_EQ(net.numSources(), 32u);
    EXPECT_EQ(net.numDests(), 8u);
}

TEST(CdXbar, ConcentrateDelivers)
{
    CdXbarNet net(params(CdxDirection::Concentrate));
    ASSERT_TRUE(net.canInject(5));
    net.inject(5, 3, tagged(42), 1);
    mem::MemRequestPtr got;
    for (int t = 0; t < 50 && !got; ++t) {
        net.tick();
        got = net.eject(3);
    }
    ASSERT_TRUE(got);
    EXPECT_EQ(got->core, 42u);
}

TEST(CdXbar, DistributeDelivers)
{
    CdXbarNet net(params(CdxDirection::Distribute));
    ASSERT_TRUE(net.canInject(2));
    net.inject(2, 17, tagged(9), 4);
    mem::MemRequestPtr got;
    for (int t = 0; t < 50 && !got; ++t) {
        net.tick();
        got = net.eject(17);
    }
    ASSERT_TRUE(got);
    EXPECT_EQ(got->core, 9u);
}

TEST(CdXbar, AllPairsEventuallyDeliver)
{
    CdXbarNet net(params(CdxDirection::Concentrate));
    std::map<std::uint32_t, int> received;
    int sent = 0;
    for (std::uint32_t src = 0; src < net.numSources(); ++src) {
        for (std::uint32_t dst = 0; dst < net.numDests(); ++dst) {
            // Inject lazily while ticking to respect backpressure.
            while (!net.canInject(src))
                net.tick();
            net.inject(src, dst, tagged(src * 100 + dst), 1);
            ++sent;
            net.tick();
            for (std::uint32_t d = 0; d < net.numDests(); ++d)
                while (auto r = net.eject(d))
                    received[d]++;
        }
    }
    for (int t = 0; t < 500; ++t) {
        net.tick();
        for (std::uint32_t d = 0; d < net.numDests(); ++d)
            while (auto r = net.eject(d))
                received[d]++;
    }
    int total = 0;
    for (auto &[d, n] : received)
        total += n;
    EXPECT_EQ(total, sent);
    EXPECT_FALSE(net.busy());
    // Every far port received one packet per near port.
    for (std::uint32_t d = 0; d < net.numDests(); ++d)
        EXPECT_EQ(received[d], int(net.numSources()));
}

TEST(CdXbar, SlowLocalStageLimitsThroughput)
{
    // Halving the local-stage clock roughly halves saturated
    // throughput when the local stage is the bottleneck.
    auto run = [](double local_ratio) {
        CdxParams p = params(CdxDirection::Concentrate);
        p.localClockRatio = local_ratio;
        CdXbarNet net(p);
        Rng rng(3);
        std::uint64_t done = 0;
        for (int t = 0; t < 3000; ++t) {
            for (std::uint32_t s = 0; s < net.numSources(); ++s)
                if (net.canInject(s))
                    net.inject(s, std::uint32_t(rng.below(8)),
                               tagged(s), 1);
            net.tick();
            for (std::uint32_t d = 0; d < net.numDests(); ++d)
                while (net.eject(d))
                    ++done;
        }
        return done;
    };
    const auto fast = run(1.0);
    const auto slow = run(0.5);
    EXPECT_GT(double(fast), 1.5 * double(slow));
}

} // anonymous namespace
