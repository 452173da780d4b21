/** @file Unit tests for the MSHR file. */

#include <gtest/gtest.h>

#include "mem/mshr.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::mem;

MemRequestPtr
req(Addr addr, CoreId core = 0)
{
    return makeRequest(MemOp::Read, addr, 32, core, 0, 0);
}

TEST(Mshr, NewEntryThenMerge)
{
    Mshr mshr(4, 4);
    auto r1 = req(0x1000);
    EXPECT_EQ(mshr.registerMiss(32, r1), MshrOutcome::NewEntry);
    EXPECT_TRUE(r1); // caller keeps the primary
    EXPECT_TRUE(mshr.hasEntry(32));

    auto r2 = req(0x1000, 1);
    EXPECT_EQ(mshr.registerMiss(32, r2), MshrOutcome::Merged);
    EXPECT_FALSE(r2); // consumed into the entry
}

TEST(Mshr, CompleteFetchReturnsTargets)
{
    Mshr mshr(4, 4);
    auto r1 = req(0x1000, 0);
    mshr.registerMiss(32, r1);
    auto r2 = req(0x1000, 1);
    auto r3 = req(0x1000, 2);
    mshr.registerMiss(32, r2);
    mshr.registerMiss(32, r3);

    auto targets = mshr.completeFetch(32);
    EXPECT_EQ(targets.size(), 2u);
    EXPECT_FALSE(mshr.hasEntry(32));
    // Cross-core merge preserved the requests.
    EXPECT_EQ(targets[0]->core, 1u);
    EXPECT_EQ(targets[1]->core, 2u);
}

TEST(Mshr, EntryExhaustion)
{
    Mshr mshr(2, 4);
    auto a = req(0x0);
    auto b = req(0x80);
    auto c = req(0x100);
    EXPECT_EQ(mshr.registerMiss(0, a), MshrOutcome::NewEntry);
    EXPECT_EQ(mshr.registerMiss(1, b), MshrOutcome::NewEntry);
    EXPECT_TRUE(mshr.full());
    EXPECT_EQ(mshr.registerMiss(2, c), MshrOutcome::NoEntryFree);
    EXPECT_TRUE(c); // untouched on failure
}

TEST(Mshr, TargetExhaustion)
{
    Mshr mshr(2, 2); // primary + one merged target
    auto a = req(0x0, 0);
    auto b = req(0x0, 1);
    auto c = req(0x0, 2);
    EXPECT_EQ(mshr.registerMiss(0, a), MshrOutcome::NewEntry);
    EXPECT_EQ(mshr.registerMiss(0, b), MshrOutcome::Merged);
    EXPECT_EQ(mshr.registerMiss(0, c), MshrOutcome::NoTargetFree);
    EXPECT_TRUE(c);
}

TEST(Mshr, RefusesFullTargetListOrFullFile)
{
    Mshr mshr(2, 2); // primary + one merged target
    EXPECT_FALSE(mshr.refuses(0));
    auto a = req(0x0, 0);
    auto b = req(0x0, 1);
    ASSERT_EQ(mshr.registerMiss(0, a), MshrOutcome::NewEntry);
    EXPECT_FALSE(mshr.refuses(0)); // room for one merge
    ASSERT_EQ(mshr.registerMiss(0, b), MshrOutcome::Merged);
    EXPECT_TRUE(mshr.refuses(0)); // target list full
    EXPECT_FALSE(mshr.refuses(1)); // a free entry
    auto c = req(0x80);
    ASSERT_EQ(mshr.registerMiss(1, c), MshrOutcome::NewEntry);
    EXPECT_TRUE(mshr.refuses(2)); // no entry and none free
    EXPECT_FALSE(mshr.refuses(1));
    mshr.completeFetch(0);
    EXPECT_FALSE(mshr.refuses(0));
    EXPECT_FALSE(mshr.refuses(2));
}

TEST(Mshr, EntryFreedAfterComplete)
{
    Mshr mshr(1, 2);
    auto a = req(0x0);
    mshr.registerMiss(0, a);
    EXPECT_TRUE(mshr.full());
    mshr.completeFetch(0);
    EXPECT_FALSE(mshr.full());
    auto b = req(0x80);
    EXPECT_EQ(mshr.registerMiss(1, b), MshrOutcome::NewEntry);
}

TEST(Mshr, CompleteUnknownLineDies)
{
    Mshr mshr(2, 2);
    EXPECT_DEATH(mshr.completeFetch(77), "no entry");
}

TEST(Mshr, InUseCount)
{
    Mshr mshr(8, 2);
    EXPECT_EQ(mshr.inUse(), 0u);
    auto a = req(0x0);
    auto b = req(0x80);
    mshr.registerMiss(0, a);
    mshr.registerMiss(1, b);
    EXPECT_EQ(mshr.inUse(), 2u);
    mshr.completeFetch(0);
    EXPECT_EQ(mshr.inUse(), 1u);
}

} // anonymous namespace
