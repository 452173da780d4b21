/** @file Unit tests for the timed cache bank. */

#include <gtest/gtest.h>

#include "mem/cache_bank.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::mem;

CacheBankParams
smallParams()
{
    CacheBankParams p;
    p.name = "test";
    p.sizeBytes = 4 * 1024; // 32 lines
    p.assoc = 4;
    p.lineBytes = 128;
    p.latency = 10;
    p.mshrs = 4;
    p.targetsPerMshr = 4;
    p.downstreamCap = 4;
    return p;
}

MemRequestPtr
read(Addr addr, CoreId core = 0, Cycle now = 0)
{
    return makeRequest(MemOp::Read, addr, 32, core, 0, now);
}

MemRequestPtr
write(Addr addr, Cycle now = 0)
{
    return makeRequest(MemOp::Write, addr, 32, 0, 0, now);
}

/** Drive the bank so line @p addr becomes resident. */
void
installViaFill(CacheBank &bank, Addr addr, Cycle &now)
{
    auto r = read(addr);
    ASSERT_EQ(bank.access(r, ++now), AccessOutcome::Miss);
    auto fetch = bank.takeDownstream();
    ASSERT_TRUE(fetch.has_value());
    (*fetch)->isReply = true;
    bank.fill(std::move(*fetch), ++now);
    // Drain the completion.
    now += 1;
    auto done = bank.takeCompleted(now);
    ASSERT_TRUE(done.has_value());
}

TEST(CacheBank, MissSendsFetchDownstream)
{
    CacheBank bank(smallParams());
    auto r = read(0x1000);
    EXPECT_EQ(bank.access(r, 1), AccessOutcome::Miss);
    EXPECT_FALSE(r);
    auto fetch = bank.takeDownstream();
    ASSERT_TRUE(fetch.has_value());
    EXPECT_TRUE((*fetch)->isFetch());
    EXPECT_EQ((*fetch)->addr, 0x1000u);
    EXPECT_EQ(bank.misses(), 1u);
}

TEST(CacheBank, HitAfterFillWithLatency)
{
    CacheBank bank(smallParams());
    Cycle now = 0;
    installViaFill(bank, 0x2000, now);

    auto r = read(0x2000);
    const Cycle at = ++now;
    EXPECT_EQ(bank.access(r, at), AccessOutcome::Hit);
    EXPECT_FALSE(bank.takeCompleted(at + 9).has_value());
    auto done = bank.takeCompleted(at + 10);
    ASSERT_TRUE(done.has_value());
    EXPECT_TRUE((*done)->isReply);
    EXPECT_EQ(bank.hits(), 1u);
}

TEST(CacheBank, PortIsSingleIssuePerCycle)
{
    CacheBank bank(smallParams());
    auto r1 = read(0x0);
    EXPECT_TRUE(bank.canAccept(5));
    bank.access(r1, 5);
    EXPECT_FALSE(bank.canAccept(5));
    EXPECT_TRUE(bank.canAccept(6));
}

TEST(CacheBank, MshrMergeAcrossCores)
{
    CacheBank bank(smallParams());
    auto r1 = read(0x3000, /*core=*/0);
    auto r2 = read(0x3000, /*core=*/1);
    EXPECT_EQ(bank.access(r1, 1), AccessOutcome::Miss);
    EXPECT_EQ(bank.access(r2, 2), AccessOutcome::Miss);
    EXPECT_EQ(bank.mshrMerges(), 1u);
    // Only one fetch goes downstream.
    EXPECT_TRUE(bank.takeDownstream().has_value());
    EXPECT_FALSE(bank.takeDownstream().has_value());
}

TEST(CacheBank, FillFansOutMergedTargets)
{
    CacheBank bank(smallParams());
    auto r1 = read(0x3000, 0);
    auto r2 = read(0x3000, 1);
    bank.access(r1, 1);
    bank.access(r2, 2);
    auto fetch = bank.takeDownstream();
    (*fetch)->isReply = true;
    bank.fill(std::move(*fetch), 50);

    int completions = 0;
    for (Cycle t = 50; t < 60; ++t) {
        while (auto done = bank.takeCompleted(t)) {
            EXPECT_TRUE((*done)->isReply);
            ++completions;
        }
    }
    EXPECT_EQ(completions, 2);
    EXPECT_TRUE(bank.tags().contains(0x3000 / 128));
}

TEST(CacheBank, WriteEvictInvalidatesAndForwards)
{
    CacheBank bank(smallParams());
    Cycle now = 0;
    installViaFill(bank, 0x4000, now);
    ASSERT_TRUE(bank.tags().contains(0x4000 / 128));

    auto w = write(0x4000);
    EXPECT_EQ(bank.access(w, ++now), AccessOutcome::Miss);
    // The line is gone (write-evict) and the write went downstream.
    EXPECT_FALSE(bank.tags().contains(0x4000 / 128));
    auto down = bank.takeDownstream();
    ASSERT_TRUE(down.has_value());
    EXPECT_TRUE((*down)->isWrite());
    EXPECT_EQ((*down)->payloadBytes, 32u);
}

TEST(CacheBank, WriteDoesNotAllocate)
{
    CacheBank bank(smallParams());
    auto w = write(0x5000);
    bank.access(w, 1);
    EXPECT_FALSE(bank.tags().contains(0x5000 / 128));
}

TEST(CacheBank, WriteAckCompletesViaFill)
{
    CacheBank bank(smallParams());
    auto w = write(0x5000);
    bank.access(w, 1);
    auto down = bank.takeDownstream();
    (*down)->isReply = true;
    bank.fill(std::move(*down), 20);
    auto done = bank.takeCompleted(20);
    ASSERT_TRUE(done.has_value());
    EXPECT_TRUE((*done)->isWrite());
}

TEST(CacheBank, WriteBackPolicyCompletesLocally)
{
    CacheBankParams p = smallParams();
    p.policy = WritePolicy::WriteBack;
    CacheBank bank(p);

    auto w = write(0x6000);
    EXPECT_EQ(bank.access(w, 1), AccessOutcome::Hit);
    EXPECT_TRUE(bank.tags().contains(0x6000 / 128)); // write-validate
    auto done = bank.takeCompleted(1 + p.latency);
    ASSERT_TRUE(done.has_value());
    // No downstream write-through under write-back.
    EXPECT_FALSE(bank.takeDownstream().has_value());
}

TEST(CacheBank, WriteBackDirtyEvictionEmitsWriteback)
{
    CacheBankParams p = smallParams();
    p.sizeBytes = 128; // 1 line total
    p.assoc = 1;
    p.policy = WritePolicy::WriteBack;
    CacheBank bank(p);

    auto w = write(0x0);
    bank.access(w, 1);
    bank.takeCompleted(1 + p.latency);

    auto w2 = write(0x80); // evicts dirty line 0
    bank.access(w2, 2);
    auto wb = bank.takeDownstream();
    ASSERT_TRUE(wb.has_value());
    EXPECT_TRUE((*wb)->isWrite());
    EXPECT_EQ((*wb)->core, invalidId); // fire-and-forget writeback
    EXPECT_EQ((*wb)->payloadBytes, 128u);
}

TEST(CacheBank, BlockedWhenMshrsExhausted)
{
    CacheBankParams p = smallParams();
    p.mshrs = 1;
    CacheBank bank(p);
    auto r1 = read(0x0);
    auto r2 = read(0x1000);
    EXPECT_EQ(bank.access(r1, 1), AccessOutcome::Miss);
    EXPECT_EQ(bank.access(r2, 2), AccessOutcome::Blocked);
    EXPECT_TRUE(r2); // retained by the caller for retry
    EXPECT_GT(bank.blockedEvents(), 0u);
}

TEST(CacheBank, BlockedWhenDownstreamFull)
{
    CacheBankParams p = smallParams();
    p.downstreamCap = 1;
    CacheBank bank(p);
    auto r1 = read(0x0);
    bank.access(r1, 1); // occupies the downstream slot
    auto r2 = read(0x1000);
    EXPECT_EQ(bank.access(r2, 2), AccessOutcome::Blocked);
}

/*
 * A structural refusal is remembered until an access takes the port,
 * a fill arrives or the miss queue is drained. Each test refuses line
 * A twice, applies one of those events, and checks that A is examined
 * again. Checked builds also re-run the pre-check behind every
 * remembered refusal and panic if it would now pass.
 */

TEST(CacheBank, RefusalRearmsOnAccess)
{
    // An L2-style bank: a write miss installs its line (write-validate).
    CacheBankParams p = smallParams();
    p.policy = WritePolicy::WriteBack;
    p.mshrs = 1;
    CacheBank bank(p);
    auto x = read(0x0);
    ASSERT_EQ(bank.access(x, 1), AccessOutcome::Miss); // MSHRs full
    auto a = read(0x1000);
    EXPECT_EQ(bank.access(a, 2), AccessOutcome::Blocked);
    EXPECT_EQ(bank.access(a, 3), AccessOutcome::Blocked);
    EXPECT_EQ(bank.blockedEvents(), 2u);
    auto w = write(0x1000);
    ASSERT_EQ(bank.access(w, 4), AccessOutcome::Hit); // installs A
    EXPECT_EQ(bank.access(a, 5), AccessOutcome::Hit);
}

TEST(CacheBank, RefusalRearmsOnFill)
{
    CacheBankParams p = smallParams();
    p.mshrs = 1;
    CacheBank bank(p);
    auto x = read(0x0);
    ASSERT_EQ(bank.access(x, 1), AccessOutcome::Miss);
    auto fetch = bank.takeDownstream();
    ASSERT_TRUE(fetch.has_value());
    auto a = read(0x1000);
    EXPECT_EQ(bank.access(a, 2), AccessOutcome::Blocked);
    EXPECT_EQ(bank.access(a, 3), AccessOutcome::Blocked);
    (*fetch)->isReply = true;
    bank.fill(std::move(*fetch), 4); // frees the MSHR
    EXPECT_EQ(bank.access(a, 5), AccessOutcome::Miss);
}

TEST(CacheBank, RefusalRearmsOnTakeDownstream)
{
    CacheBankParams p = smallParams();
    p.downstreamCap = 1;
    CacheBank bank(p);
    auto x = read(0x0);
    ASSERT_EQ(bank.access(x, 1), AccessOutcome::Miss); // miss queue full
    auto a = read(0x1000);
    EXPECT_EQ(bank.access(a, 2), AccessOutcome::Blocked);
    EXPECT_EQ(bank.access(a, 3), AccessOutcome::Blocked);
    ASSERT_TRUE(bank.takeDownstream().has_value());
    EXPECT_EQ(bank.access(a, 4), AccessOutcome::Miss);
}

TEST(CacheBank, RefusalIsRememberedPerLineAndKind)
{
    CacheBankParams p = smallParams();
    p.mshrs = 2;
    CacheBank bank(p);
    Cycle now = 0;
    installViaFill(bank, 0x2000, now); // B resident
    auto x = read(0x0);
    auto y = read(0x800);
    ASSERT_EQ(bank.access(x, ++now), AccessOutcome::Miss);
    ASSERT_EQ(bank.access(y, ++now), AccessOutcome::Miss); // MSHRs full
    auto a = read(0x1000);
    EXPECT_EQ(bank.access(a, ++now), AccessOutcome::Blocked);
    // The same line as a write needs only miss-queue room.
    auto wa = write(0x1000);
    EXPECT_EQ(bank.access(wa, ++now), AccessOutcome::Miss);
    EXPECT_EQ(bank.access(a, ++now), AccessOutcome::Blocked);
    // Other lines: a resident one hits, an in-flight one merges.
    auto b = read(0x2000);
    EXPECT_EQ(bank.access(b, ++now), AccessOutcome::Hit);
    EXPECT_EQ(bank.access(a, ++now), AccessOutcome::Blocked);
    auto x2 = read(0x0, /*core=*/1);
    EXPECT_EQ(bank.access(x2, ++now), AccessOutcome::Miss);
    EXPECT_EQ(bank.mshrMerges(), 1u);
}

TEST(CacheBank, FullTargetListIsRefusedByThePreCheck)
{
    // A read miss whose MSHR target list is full is refused before it
    // commits: the port stays free, the request and the access stats
    // are untouched, and the refusal is remembered until the line's
    // fill arrives.
    CacheBankParams p = smallParams();
    p.targetsPerMshr = 1;
    CacheBank bank(p);
    auto x = read(0x0);
    ASSERT_EQ(bank.access(x, 1), AccessOutcome::Miss);
    auto fetch = bank.takeDownstream();
    ASSERT_TRUE(fetch.has_value());
    auto x2 = read(0x0, /*core=*/1);
    for (Cycle t = 2; t <= 4; ++t) {
        EXPECT_EQ(bank.access(x2, t), AccessOutcome::Blocked);
        EXPECT_TRUE(bank.canAccept(t)) << "cycle " << t;
    }
    EXPECT_EQ(x2->l1ServiceAt, 0u);
    EXPECT_EQ(bank.accesses(), 1u);
    EXPECT_EQ(bank.misses(), 1u);
    EXPECT_EQ(bank.readMisses(), 1u);
    EXPECT_EQ(bank.blockedEvents(), 3u);
    (*fetch)->isReply = true;
    bank.fill(std::move(*fetch), 5); // installs the line
    EXPECT_EQ(bank.access(x2, 6), AccessOutcome::Hit);
    EXPECT_EQ(x2, nullptr);
}

TEST(CacheBank, PerfectModeAlwaysHits)
{
    CacheBankParams p = smallParams();
    p.perfect = true;
    CacheBank bank(p);
    for (Cycle t = 1; t <= 64; ++t) {
        auto r = read(t * 0x1000);
        EXPECT_EQ(bank.access(r, t), AccessOutcome::Hit);
        while (bank.takeCompleted(t)) {
        }
    }
    EXPECT_EQ(bank.misses(), 0u);
}

TEST(CacheBank, FetchReplyPayloadIsFullLine)
{
    // An L2-style bank hit on an upstream fetch returns the whole line.
    CacheBankParams p = smallParams();
    p.policy = WritePolicy::WriteBack;
    CacheBank bank(p);
    Cycle now = 0;

    auto warm = read(0x7000);
    warm->op = MemOp::Read;
    bank.access(warm, ++now);
    auto f = bank.takeDownstream();
    (*f)->isReply = true;
    bank.fill(std::move(*f), ++now);
    ++now;
    bank.takeCompleted(now);

    auto fetch = read(0x7000);
    ++fetch->fetchDepth; // simulate an upstream L1's fetch
    const Cycle at = ++now;
    EXPECT_EQ(bank.access(fetch, at), AccessOutcome::Hit);
    auto done = bank.takeCompleted(at + p.latency);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ((*done)->payloadBytes, 128u);
    EXPECT_TRUE((*done)->isFetch()); // still the upstream cache's fetch
}

TEST(CacheBank, MissRateStat)
{
    CacheBank bank(smallParams());
    Cycle now = 0;
    installViaFill(bank, 0x0, now);
    auto h = read(0x0);
    bank.access(h, ++now);
    auto m = read(0x8000);
    bank.access(m, ++now);
    // installViaFill made 1 miss; then 1 hit and 1 miss.
    EXPECT_DOUBLE_EQ(bank.missRate(), 2.0 / 3.0);
}

} // anonymous namespace
