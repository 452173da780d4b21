/**
 * @file
 * Tests for the invariant-checking subsystem: fault injection proving
 * that each invariant class actually fires, plus the same-seed
 * determinism regression across the paper's main design points.
 */

#include <gtest/gtest.h>

#include "check/check.hh"
#include "exec/determinism.hh"
#include "check/request_ledger.hh"
#include "core/design.hh"
#include "core/gpu_system.hh"
#include "mem/queues.hh"
#include "mem/request.hh"

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

/** Resets shared ledger state so tests cannot pollute each other. */
class LedgerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!check::checksCompiledIn)
            GTEST_SKIP() << "built with DCL1_CHECK=OFF";
        check::ledger().setStrictDestroy(false);
        check::ledger().clear();
    }

    void
    TearDown() override
    {
        check::ledger().setStrictDestroy(false);
        check::ledger().clear();
    }

    mem::MemRequestPtr
    tracked(Addr addr = 0x1000)
    {
        auto req = mem::makeRequest(mem::MemOp::Read, addr, 4, 0, 0, 0);
        check::ledger().onCreate(*req, 0);
        return req;
    }
};

using LedgerDeathTest = LedgerTest;

TEST_F(LedgerTest, HappyPathLifecycle)
{
    auto req = tracked();
    EXPECT_NE(req->chkSeq, 0u);
    EXPECT_EQ(check::ledger().liveCount(), 1u);

    check::ledger().onTransition(*req, check::ReqStage::InNoc);
    check::ledger().onTransition(*req, check::ReqStage::AtCache);
    check::ledger().onTransition(*req, check::ReqStage::AtDram);
    check::ledger().onTransition(*req, check::ReqStage::AtCache);
    check::ledger().onTransition(*req, check::ReqStage::InNoc);
    check::ledger().onRetire(*req);

    EXPECT_EQ(check::ledger().liveCount(), 0u);
    check::ledger().audit("happy-path"); // must not panic
    req.reset();                         // retired: destroy is legal
}

TEST_F(LedgerTest, EventRingRecordsLifecycleForCrashForensics)
{
    auto req = tracked(0x1f80);
    check::ledger().onTransition(*req, check::ReqStage::InNoc);
    check::ledger().onRetire(*req);

    const std::string json = check::ledger().recentEventsJson();
    EXPECT_NE(json.find("\"ev\":\"create\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"ev\":\"transition\""), std::string::npos);
    EXPECT_NE(json.find("\"ev\":\"retire\""), std::string::npos);
    EXPECT_NE(json.find("\"from\":\"Issued\",\"to\":\"InNoc\""),
              std::string::npos);
    EXPECT_NE(json.find("\"to\":\"Retired\""), std::string::npos);
    EXPECT_NE(json.find("\"addr\":\"0x1f80\""), std::string::npos);
    req.reset();

    // The ring keeps only the most recent kEventRing events: after
    // many more lifecycles the early request's events are gone.
    for (int i = 0; i < 40; ++i) {
        auto r2 = tracked(0x4000 + Addr(i) * 0x80);
        check::ledger().onTransition(*r2, check::ReqStage::InNoc);
        check::ledger().onRetire(*r2);
        r2.reset();
    }
    const std::string later = check::ledger().recentEventsJson();
    EXPECT_EQ(later.find("\"addr\":\"0x1f80\""), std::string::npos);

    // clear() resets the forensic tail along with the session state.
    check::ledger().clear();
    EXPECT_EQ(check::ledger().recentEventsJson(), "[]");
}

TEST_F(LedgerTest, UntrackedRequestsAreIgnored)
{
    auto req = mem::makeRequest(mem::MemOp::Read, 0x2000, 4, 0, 0, 0);
    ASSERT_EQ(req->chkSeq, 0u);
    check::ledger().onTransition(*req, check::ReqStage::AtDram);
    check::ledger().onRetire(*req);
    EXPECT_EQ(check::ledger().liveCount(), 0u);
}

TEST_F(LedgerDeathTest, DoubleRegistrationPanics)
{
    auto req = tracked();
    EXPECT_DEATH(check::ledger().onCreate(*req, 0), "registered twice");
}

TEST_F(LedgerDeathTest, IllegalTransitionPanics)
{
    // A request cannot teleport from its core straight into DRAM.
    auto req = tracked();
    EXPECT_DEATH(
        check::ledger().onTransition(*req, check::ReqStage::AtDram),
        "illegal transition Issued -> AtDram");
}

TEST_F(LedgerDeathTest, MshrDoubleMergePanics)
{
    // Re-merging an already merged request is the classic MSHR bug.
    auto req = tracked();
    check::ledger().onTransition(*req, check::ReqStage::AtCache);
    check::ledger().onTransition(*req, check::ReqStage::InMshr);
    EXPECT_DEATH(
        check::ledger().onTransition(*req, check::ReqStage::InMshr),
        "illegal transition InMshr -> InMshr");
}

TEST_F(LedgerDeathTest, UseAfterRetirePanics)
{
    auto req = tracked();
    check::ledger().onTransition(*req, check::ReqStage::InNoc);
    check::ledger().onRetire(*req);
    EXPECT_DEATH(
        check::ledger().onTransition(*req, check::ReqStage::AtCache),
        "illegal transition Retired -> AtCache");
}

TEST_F(LedgerDeathTest, DoubleRetirePanics)
{
    auto req = tracked();
    check::ledger().onTransition(*req, check::ReqStage::InNoc);
    check::ledger().onRetire(*req);
    EXPECT_DEATH(check::ledger().onRetire(*req), "double retire");
}

TEST_F(LedgerDeathTest, RetireFromIllegalStagePanics)
{
    // Consuming a request that is still merged inside an MSHR entry
    // would duplicate (or lose) the eventual fill.
    auto req = tracked();
    check::ledger().onTransition(*req, check::ReqStage::AtCache);
    check::ledger().onTransition(*req, check::ReqStage::InMshr);
    EXPECT_DEATH(check::ledger().onRetire(*req),
                 "retire from illegal stage InMshr");
}

TEST_F(LedgerDeathTest, StrictDestroyCatchesLeaks)
{
    auto req = tracked();
    check::ledger().setStrictDestroy(true);
    EXPECT_DEATH(req.reset(), "leaked");
    check::ledger().setStrictDestroy(false);
}

TEST_F(LedgerDeathTest, AuditReportsLiveRequests)
{
    auto req = tracked();
    check::ledger().onTransition(*req, check::ReqStage::InNoc);
    EXPECT_DEATH(check::ledger().audit("unit-test"),
                 "1 request\\(s\\) still live");
}

TEST(BoundedQueueDeathTest, OverflowPushPanics)
{
    if (!check::checksCompiledIn)
        GTEST_SKIP() << "built with DCL1_CHECK=OFF";
    mem::BoundedQueue<int> q(1);
    q.push(1);
    EXPECT_DEATH(q.push(2), "push beyond capacity");
}

TEST(BoundedQueueDeathTest, EmptyPopPanics)
{
    if (!check::checksCompiledIn)
        GTEST_SKIP() << "built with DCL1_CHECK=OFF";
    mem::BoundedQueue<int> q(1);
    EXPECT_DEATH(q.pop(), "pop from empty");
}

/**
 * End-to-end meta-check: a full simulation must actually exercise the
 * instrumentation (hooks wired, requests registered and retired) and
 * finish with a clean system-wide audit.
 */
TEST(CheckIntegration, SimulationIsAudited)
{
    if (!check::checksCompiledIn)
        GTEST_SKIP() << "built with DCL1_CHECK=OFF";
    const std::uint64_t reg_before = check::ledger().registered();

    GpuSystem gpu(SystemConfig(), privateDcl1(40),
                  workload::WorkloadParams());
    gpu.run(2000, 500);
    EXPECT_GT(check::ledger().registered(), reg_before);
    EXPECT_GT(check::ledger().retired(), 0u);

    gpu.checkInvariants("test");
    EXPECT_TRUE(gpu.drain()); // drain() runs the ledger leak audit
}

/** Same-seed determinism across the paper's headline design points. */
class DeterminismTest : public ::testing::TestWithParam<DesignConfig>
{
};

TEST_P(DeterminismTest, SameSeedSameDigest)
{
    const auto r = exec::runTwiceAndCompare(
        SystemConfig(), GetParam(), workload::WorkloadParams(), 2000, 500);
    EXPECT_TRUE(r.ok) << "digest A " << r.digestA << " != digest B "
                      << r.digestB;
}

INSTANTIATE_TEST_SUITE_P(
    Designs, DeterminismTest,
    ::testing::Values(baselineDesign(), privateDcl1(40), sharedDcl1(40),
                      clusteredDcl1(40, 10, true)),
    [](const ::testing::TestParamInfo<DesignConfig> &info) {
        std::string name = info.param.name;
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // namespace
