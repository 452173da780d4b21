/** @file Unit tests for the GDDR5-like memory channel. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "mem/dram.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::mem;

DramParams
params()
{
    DramParams p;
    p.name = "ch";
    p.numChannels = 16;
    return p;
}

MemRequestPtr
read(Addr addr)
{
    auto r = makeRequest(MemOp::Read, addr, 32, 0, 0, 0);
    r->fetchDepth = 1;
    return r;
}

/** Tick until a completion appears (or the deadline passes). */
MemRequestPtr
runUntilDone(DramChannel &ch, Cycle &now, Cycle deadline)
{
    while (now < deadline) {
        ++now;
        ch.tick(now);
        if (auto done = ch.takeCompleted(now))
            return std::move(*done);
    }
    return nullptr;
}

TEST(Dram, ReadCompletes)
{
    DramChannel ch(params());
    Cycle now = 0;
    ch.push(read(0x0), now);
    auto done = runUntilDone(ch, now, 200);
    ASSERT_TRUE(done);
    EXPECT_TRUE(done->isReply);
    EXPECT_EQ(done->payloadBytes, 128u); // fetch returns the line
    EXPECT_EQ(ch.reads(), 1u);
}

TEST(Dram, RowMissLatencyExceedsRowHit)
{
    DramParams p = params();
    DramChannel ch(p);
    Cycle now = 0;

    ch.push(read(0x0), now);
    const Cycle start1 = now;
    runUntilDone(ch, now, 500);
    const Cycle lat_miss = now - start1;

    // Same row (channel-local): next chunk owned by this channel.
    ch.push(read(Addr(p.chunkBytes) * p.numChannels), now);
    const Cycle start2 = now;
    runUntilDone(ch, now, 500);
    const Cycle lat_hit = now - start2;

    EXPECT_GT(lat_miss, lat_hit);
    EXPECT_EQ(ch.rowHits(), 1u);
    EXPECT_EQ(ch.rowMisses(), 1u);
}

TEST(Dram, FrfcfsPrefersRowHit)
{
    DramParams p = params();
    DramChannel ch(p);
    Cycle now = 0;
    // Open a row.
    ch.push(read(0x0), now);
    runUntilDone(ch, now, 500);

    // Queue a row miss (older) and a row hit (younger) to other banks /
    // same bank: the hit should be scheduled first.
    auto miss = read(Addr(p.rowBytes) * p.numChannels * p.numBanks * 7);
    auto hit = read(Addr(p.chunkBytes) * p.numChannels * 2);
    miss->warp = 1;
    hit->warp = 2;
    ch.push(std::move(miss), now);
    ch.push(std::move(hit), now);

    auto first = runUntilDone(ch, now, 500);
    ASSERT_TRUE(first);
    EXPECT_EQ(first->warp, 2u);
}

TEST(Dram, WritebackHasNoReply)
{
    DramChannel ch(params());
    Cycle now = 0;
    auto wb = makeRequest(MemOp::Write, 0x0, 128, invalidId, 0, 0);
    ch.push(std::move(wb), now);
    auto done = runUntilDone(ch, now, 300);
    EXPECT_FALSE(done);
    EXPECT_EQ(ch.writes(), 1u);
    EXPECT_FALSE(ch.busy());
}

TEST(Dram, QueueBackpressure)
{
    DramParams p = params();
    p.queueCap = 2;
    DramChannel ch(p);
    Cycle now = 0;
    ch.push(read(0x0), now);
    ch.push(read(0x1000000), now);
    EXPECT_FALSE(ch.canAccept());
}

TEST(Dram, BankLevelParallelismBeatsSingleBank)
{
    // N requests to N different banks finish much faster than N
    // requests to the same bank.
    DramParams p = params();
    const Addr bank_stride =
        Addr(p.rowBytes) * p.numChannels; // next local row -> next bank
    const Addr row_stride = bank_stride * p.numBanks; // same bank

    auto run_n = [&](Addr stride) {
        DramChannel ch(p);
        Cycle now = 0;
        for (int i = 0; i < 8; ++i)
            ch.push(read(stride * i), now);
        int done = 0;
        while (done < 8 && now < 5000) {
            ++now;
            ch.tick(now);
            while (ch.takeCompleted(now))
                ++done;
        }
        return now;
    };

    const Cycle parallel = run_n(bank_stride);
    const Cycle serial = run_n(row_stride);
    EXPECT_LT(parallel * 2, serial);
}

TEST(Dram, SaturatedThroughputNearBusBound)
{
    // Random traffic: the data bus (burstCycles per line) bounds
    // throughput; expect at least 60 % of the bus bound.
    DramParams p = params();
    DramChannel ch(p);
    Cycle now = 0;
    std::uint64_t pushed = 0, done = 0;
    while (now < 20000) {
        ++now;
        while (ch.canAccept()) {
            ch.push(read((pushed * 977) % 4096 * p.chunkBytes *
                         p.numChannels),
                    now);
            ++pushed;
        }
        ch.tick(now);
        while (ch.takeCompleted(now))
            ++done;
    }
    const double bus_bound = 1.0 / p.burstCycles;
    EXPECT_GT(double(done) / double(now), 0.6 * bus_bound);
}

/**
 * The channel as it was before requests were decoded at push: every
 * tick walks the whole queue and decodes each entry's bank and row
 * again. Ledger, telemetry and profiling hooks are left out.
 */
class ScanDram
{
  public:
    explicit ScanDram(const DramParams &p) : p_(p), banks_(p.numBanks) {}

    bool canAccept() const { return queue_.size() < p_.queueCap; }
    void push(MemRequestPtr req) { queue_.push_back(std::move(req)); }

    void
    tick(Cycle now)
    {
        auto pick = queue_.end();
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            const Bank &bank = banks_[bankOf((*it)->addr)];
            if (bank.readyAt > now)
                continue;
            if (bank.openRow == rowOf((*it)->addr)) {
                pick = it;
                break;
            }
            if (pick == queue_.end())
                pick = it;
        }
        if (pick == queue_.end())
            return;

        MemRequestPtr req = std::move(*pick);
        queue_.erase(pick);
        Bank &bank = banks_[bankOf(req->addr)];
        const std::uint64_t row = rowOf(req->addr);
        Cycle col_ready = now;
        if (bank.openRow == row) {
            ++rowHits;
        } else {
            ++rowMisses;
            col_ready = now + p_.tRp + p_.tRcd;
            bank.openRow = row;
        }
        const Cycle done =
            std::max(col_ready + p_.tCl, busFreeAt_) + p_.burstCycles;
        busFreeAt_ = done;
        busBusy += p_.burstCycles;
        bank.readyAt = done;

        if (req->isWrite()) {
            ++writes;
            if (req->core == invalidId)
                return;
            req->isReply = true;
            req->payloadBytes = 0;
            inService_.emplace_back(done, std::move(req));
            return;
        }
        ++reads;
        req->isReply = true;
        req->payloadBytes =
            req->isFetch() ? defaultLineBytes : req->bytes;
        inService_.emplace_back(done, std::move(req));
    }

    std::optional<MemRequestPtr>
    takeCompleted(Cycle now)
    {
        for (auto it = inService_.begin(); it != inService_.end(); ++it) {
            if (it->first <= now) {
                MemRequestPtr req = std::move(it->second);
                inService_.erase(it);
                return req;
            }
        }
        return std::nullopt;
    }

    bool busy() const { return !queue_.empty() || !inService_.empty(); }
    std::size_t queueSize() const { return queue_.size(); }
    std::size_t inServiceSize() const { return inService_.size(); }

    std::uint64_t reads = 0, writes = 0, rowHits = 0, rowMisses = 0;
    std::uint64_t busBusy = 0;

  private:
    struct Bank
    {
        std::uint64_t openRow = ~0ull;
        Cycle readyAt = 0;
    };

    std::uint64_t
    localRow(Addr addr) const
    {
        return addr / p_.chunkBytes / p_.numChannels /
               (p_.rowBytes / p_.chunkBytes);
    }
    std::uint32_t
    bankOf(Addr addr) const
    {
        return static_cast<std::uint32_t>(localRow(addr) % p_.numBanks);
    }
    std::uint64_t rowOf(Addr addr) const
    {
        return localRow(addr) / p_.numBanks;
    }

    DramParams p_;
    std::vector<Bank> banks_;
    std::deque<MemRequestPtr> queue_;
    std::vector<std::pair<Cycle, MemRequestPtr>> inService_;
    Cycle busFreeAt_ = 0;
};

/** burstCycles, tRcd, tRp, tCl. */
using Timing = std::array<std::uint32_t, 4>;

/**
 * Differential property: under identical seeded traffic (demand reads,
 * fetches, L1 writes and writebacks over three rows per bank, in
 * bursts up to a full queue and in quiet spells), DramChannel issues,
 * replies and counts exactly as the per-tick scan does, on every tick,
 * for each timing set.
 */
class DramDifferentialTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>>
{
};

TEST_P(DramDifferentialTest, MatchesScanScheduler)
{
    const auto [banks, cap] = GetParam();
    for (const Timing &t : {Timing{6, 18, 18, 18}, Timing{1, 2, 5, 1},
                            Timing{3, 0, 0, 0}, Timing{0, 0, 0, 0}}) {
        SCOPED_TRACE(::testing::Message()
                     << "burst " << t[0] << " tRcd " << t[1] << " tRp "
                     << t[2] << " tCl " << t[3]);
        DramParams p = params();
        p.numBanks = banks;
        p.queueCap = cap;
        p.burstCycles = t[0];
        p.tRcd = t[1];
        p.tRp = t[2];
        p.tCl = t[3];
        DramChannel ch(p);
        ScanDram ref(p);
        Rng rng(banks * 1000 + cap * 10 + t[0]);

        // (id, addr, cycle, payload) of every reply taken.
        using Reply = std::array<std::uint64_t, 4>;
        std::vector<Reply> got;
        std::vector<Reply> want;
        const std::uint32_t chunks_per_row = p.rowBytes / p.chunkBytes;
        std::uint32_t next_id = 0;
        std::uint64_t waited = 0;
        for (Cycle now = 1; now <= 6000; ++now) {
            // Alternate 400-cycle spells of heavy and light traffic.
            const bool heavy = (now / 400) % 2 == 0;
            std::uint64_t pushes = 0;
            if (rng.chance(heavy ? 0.4 : 0.03))
                pushes = rng.chance(0.2) ? cap : 1 + rng.below(3);
            for (; pushes != 0; --pushes) {
                ASSERT_EQ(ch.canAccept(), ref.canAccept()) << "cycle " << now;
                if (!ch.canAccept())
                    break;
                const std::uint64_t local_row = rng.below(banks * 3);
                const std::uint64_t local_chunk =
                    local_row * chunks_per_row + rng.below(chunks_per_row);
                const Addr addr =
                    (local_chunk * p.numChannels) * p.chunkBytes +
                    rng.below(p.chunkBytes / 32) * 32;
                const std::uint64_t kind = rng.below(4);
                MemRequestPtr pair[2];
                for (MemRequestPtr &r : pair) {
                    if (kind < 2) {
                        r = makeRequest(MemOp::Read, addr, 32, 0, next_id,
                                        now);
                        r->fetchDepth = std::uint8_t(kind); // 1: a fetch
                    } else {
                        // 2: an L1 write, ACKed; 3: an L2 writeback.
                        r = makeRequest(MemOp::Write, addr, 32,
                                        kind == 3 ? invalidId : 0,
                                        next_id, now);
                    }
                }
                ++next_id;
                ch.push(std::move(pair[0]), now);
                ref.push(std::move(pair[1]));
            }

            const bool queued = ref.queueSize() != 0;
            const std::uint64_t issued = ref.reads + ref.writes;
            ch.tick(now);
            ref.tick(now);
            if (queued && ref.reads + ref.writes == issued)
                ++waited;
            while (auto r = ch.takeCompleted(now))
                got.push_back({(*r)->warp, (*r)->addr, now,
                               (*r)->payloadBytes});
            while (auto r = ref.takeCompleted(now))
                want.push_back({(*r)->warp, (*r)->addr, now,
                                (*r)->payloadBytes});

            ASSERT_EQ(got.size(), want.size()) << "cycle " << now;
            if (!want.empty()) {
                ASSERT_EQ(got.back(), want.back()) << "cycle " << now;
            }
            ASSERT_EQ(ch.reads(), ref.reads) << "cycle " << now;
            ASSERT_EQ(ch.writes(), ref.writes) << "cycle " << now;
            ASSERT_EQ(ch.rowHits(), ref.rowHits) << "cycle " << now;
            ASSERT_EQ(ch.rowMisses(), ref.rowMisses) << "cycle " << now;
            ASSERT_EQ(ch.statGroup().findScalar("bus_busy_cycles")->value(),
                      ref.busBusy)
                << "cycle " << now;
            ASSERT_EQ(ch.queueSize(), ref.queueSize()) << "cycle " << now;
            ASSERT_EQ(ch.inServiceSize(), ref.inServiceSize())
                << "cycle " << now;
            ASSERT_EQ(ch.busy(), ref.busy()) << "cycle " << now;
        }
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(got[i], want[i]) << "reply " << i;
        // Row hits, row misses and ticks that could issue nothing all
        // occurred.
        EXPECT_GT(ref.rowHits, 0u);
        EXPECT_GT(ref.rowMisses, 0u);
        EXPECT_GT(want.size(), 50u);
        if (t[0] != 0) {
            EXPECT_GT(waited, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DramDifferentialTest,
    ::testing::Combine(::testing::Values(1u, 4u, 16u),
                       ::testing::Values(1u, 8u, 64u)),
    [](const auto &info) {
        return "b" + std::to_string(std::get<0>(info.param)) + "_q" +
               std::to_string(std::get<1>(info.param));
    });

} // anonymous namespace
