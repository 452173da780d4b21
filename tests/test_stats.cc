/** @file Unit tests for the statistics framework. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "stats/stats.hh"

namespace
{

using namespace dcl1::stats;

TEST(Scalar, Basics)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0u);
    s.inc();
    s.inc(4);
    ++s;
    s += 10;
    EXPECT_EQ(s.value(), 16u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Distribution, MeanMinMax)
{
    Distribution d(10, 8);
    d.sample(5);
    d.sample(15);
    d.sample(25);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_EQ(d.sum(), 45u);
    EXPECT_EQ(d.min(), 5u);
    EXPECT_EQ(d.max(), 25u);
    EXPECT_DOUBLE_EQ(d.mean(), 15.0);
}

TEST(Distribution, Buckets)
{
    Distribution d(10, 4);
    d.sample(0);
    d.sample(9);
    d.sample(10);
    d.sample(39);
    d.sample(40);  // overflow
    d.sample(500); // overflow
    EXPECT_EQ(d.bucket(0), 2u);
    EXPECT_EQ(d.bucket(1), 1u);
    EXPECT_EQ(d.bucket(3), 1u);
    EXPECT_EQ(d.overflow(), 2u);
}

TEST(Distribution, Reset)
{
    Distribution d(4, 4);
    d.sample(3);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.sum(), 0u);
    EXPECT_EQ(d.min(), 0u);
    EXPECT_EQ(d.max(), 0u);
    EXPECT_EQ(d.bucket(0), 0u);
}

TEST(Distribution, Percentile)
{
    Distribution d(1, 100);
    for (std::uint64_t v = 0; v < 100; ++v)
        d.sample(v);
    EXPECT_NEAR(d.percentile(50), 50.0, 2.0);
    EXPECT_NEAR(d.percentile(90), 90.0, 2.0);
    EXPECT_NEAR(d.percentile(0), 0.5, 1.0);
}

TEST(Distribution, PercentileEmpty)
{
    Distribution d;
    EXPECT_DOUBLE_EQ(d.percentile(50), 0.0);
}

TEST(Distribution, PercentileClampsP)
{
    Distribution d(1, 100);
    for (std::uint64_t v = 0; v < 100; ++v)
        d.sample(v);
    // Out-of-range p clamps rather than reading out of bounds.
    EXPECT_DOUBLE_EQ(d.percentile(-10), d.percentile(0));
    EXPECT_DOUBLE_EQ(d.percentile(250), d.percentile(100));
    // Width-1 buckets estimate at the bucket midpoint exactly.
    EXPECT_DOUBLE_EQ(d.percentile(0), 0.5);
    EXPECT_DOUBLE_EQ(d.percentile(100), 99.5);
    EXPECT_DOUBLE_EQ(d.percentile(50), 49.5);
}

TEST(Distribution, PercentileSingleSample)
{
    Distribution d(10, 8);
    d.sample(42);
    // Every percentile of a one-sample distribution is that sample's
    // bucket midpoint.
    EXPECT_DOUBLE_EQ(d.percentile(0), 45.0);
    EXPECT_DOUBLE_EQ(d.percentile(50), 45.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 45.0);
}

TEST(Distribution, PercentileAllOverflow)
{
    Distribution d(1, 4);
    d.sample(1000);
    d.sample(2000);
    // Samples past the histogram fall back to the observed max.
    EXPECT_DOUBLE_EQ(d.percentile(50), 2000.0);
    EXPECT_DOUBLE_EQ(d.percentile(99), 2000.0);
}

TEST(FormatDouble, StableAndRoundTrips)
{
    EXPECT_EQ(formatDouble(0.0), "0");
    EXPECT_EQ(formatDouble(2.0), "2");
    EXPECT_EQ(formatDouble(0.25), "0.25");
    EXPECT_EQ(formatDouble(1.5), "1.5");
    // Shortest-round-trip: parsing the string recovers the exact bits.
    for (const double v : {0.1, 1.0 / 3.0, 12345.6789, 1e100, 3e-9})
        EXPECT_DOUBLE_EQ(std::strtod(formatDouble(v).c_str(), nullptr),
                         v);
}

TEST(StatGroup, RegisterAndDump)
{
    StatGroup g("top");
    Scalar a, b;
    a.inc(3);
    b.inc(7);
    g.addScalar("alpha", &a);
    g.addScalar("beta", &b);

    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("top.alpha 3"), std::string::npos);
    EXPECT_NE(out.find("top.beta 7"), std::string::npos);
}

TEST(StatGroup, ChildrenAndReset)
{
    StatGroup parent("p");
    StatGroup child("c");
    Scalar a, b;
    a.inc(1);
    b.inc(2);
    parent.addScalar("a", &a);
    child.addScalar("b", &b);
    parent.addChild(&child);

    std::ostringstream os;
    parent.dump(os);
    EXPECT_NE(os.str().find("p.c.b 2"), std::string::npos);

    parent.reset();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
}

TEST(StatGroup, FindScalar)
{
    StatGroup g("g");
    Scalar a;
    a.inc(5);
    g.addScalar("a", &a);
    ASSERT_NE(g.findScalar("a"), nullptr);
    EXPECT_EQ(g.findScalar("a")->value(), 5u);
    EXPECT_EQ(g.findScalar("nope"), nullptr);
}

TEST(StatGroup, FindScalarDottedPath)
{
    StatGroup root("gpu");
    // Child names themselves contain dots, like the crossbars'
    // "noc.req" groups — lookup must match whole child names, not
    // split at the first dot.
    StatGroup noc_req("noc.req");
    StatGroup dram("dram0");
    Scalar flits, row_hits;
    flits.inc(11);
    row_hits.inc(7);
    noc_req.addScalar("flits", &flits);
    dram.addScalar("row_hits", &row_hits);
    root.addChild(&noc_req);
    root.addChild(&dram);

    ASSERT_NE(root.findScalar("noc.req.flits"), nullptr);
    EXPECT_EQ(root.findScalar("noc.req.flits")->value(), 11u);
    ASSERT_NE(root.findScalar("dram0.row_hits"), nullptr);
    EXPECT_EQ(root.findScalar("dram0.row_hits")->value(), 7u);
    // A partial child-name match is not a path component.
    EXPECT_EQ(root.findScalar("noc.flits"), nullptr);
    EXPECT_EQ(root.findScalar("dram0.row_hits.extra"), nullptr);
}

TEST(StatGroup, FindDistribution)
{
    StatGroup root("gpu");
    StatGroup child("lat");
    Distribution d(4, 8);
    d.sample(6);
    child.addDistribution("read", &d);
    root.addChild(&child);

    ASSERT_NE(root.findDistribution("lat.read"), nullptr);
    EXPECT_EQ(root.findDistribution("lat.read")->count(), 1u);
    EXPECT_EQ(root.findDistribution("read"), nullptr);
    EXPECT_EQ(root.findDistribution("lat.nope"), nullptr);
    // Scalars and distributions live in separate namespaces.
    EXPECT_EQ(root.findScalar("lat.read"), nullptr);
}

TEST(StatGroup, DumpPercentileLines)
{
    StatGroup g("g");
    Distribution d(1, 100);
    for (std::uint64_t v = 0; v < 100; ++v)
        d.sample(v);
    g.addDistribution("lat", &d);

    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("g.lat.p50 49.5"), std::string::npos);
    EXPECT_NE(out.find("g.lat.p95 94.5"), std::string::npos);
    EXPECT_NE(out.find("g.lat.p99 98.5"), std::string::npos);
}

TEST(StatGroup, DumpJsonShape)
{
    StatGroup root("gpu");
    StatGroup child("core0");
    Scalar insts;
    insts.inc(3);
    Distribution d(2, 4);
    d.sample(1);
    d.sample(100); // overflow
    child.addScalar("instructions", &insts);
    root.addDistribution("lat", &d);
    root.addChild(&child);

    std::ostringstream os;
    root.dumpJson(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"name\":\"gpu\""), std::string::npos);
    EXPECT_NE(out.find("\"instructions\":3"), std::string::npos);
    EXPECT_NE(out.find("\"p95\":"), std::string::npos);
    EXPECT_NE(out.find("\"overflow\":1"), std::string::npos);
    EXPECT_NE(out.find("\"buckets\":[1,0,0,0]"), std::string::npos);
    // One JSON object, no trailing newline (callers add their own).
    EXPECT_EQ(out.front(), '{');
    EXPECT_EQ(out.back(), '}');
}

} // anonymous namespace
