/** @file Unit and property tests for the iSLIP crossbar. */

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "noc/crossbar.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::noc;

Packet
packet(std::uint32_t src, std::uint32_t dst, std::uint32_t flits = 1)
{
    Packet p;
    p.src = src;
    p.dst = dst;
    p.flits = flits;
    return p;
}

XbarParams
params(std::uint32_t in, std::uint32_t out, double ratio = 1.0)
{
    XbarParams p;
    p.name = "x";
    p.numInputs = in;
    p.numOutputs = out;
    p.clockRatio = ratio;
    return p;
}

TEST(Crossbar, DeliversAPacket)
{
    Crossbar x(params(2, 2));
    x.inject(packet(0, 1));
    for (int i = 0; i < 10; ++i)
        x.tick();
    auto p = x.eject(1);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->src, 0u);
    EXPECT_FALSE(x.eject(0).has_value());
    EXPECT_FALSE(x.busy());
}

TEST(Crossbar, FifoOrderWithinVoq)
{
    Crossbar x(params(1, 1));
    for (std::uint32_t i = 0; i < 4; ++i) {
        Packet p = packet(0, 0);
        p.endpoint = i;
        x.inject(std::move(p));
    }
    std::vector<std::uint32_t> order;
    for (int t = 0; t < 30; ++t) {
        x.tick();
        while (auto p = x.eject(0))
            order.push_back(p->endpoint);
    }
    ASSERT_EQ(order.size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Crossbar, MultiFlitSerialization)
{
    // A 4-flit packet occupies the port 4x longer than a 1-flit one.
    auto deliver_time = [](std::uint32_t flits) {
        Crossbar x(params(1, 1));
        x.inject(packet(0, 0, flits));
        int t = 0;
        while (t < 100) {
            ++t;
            x.tick();
            if (x.eject(0))
                break;
        }
        return t;
    };
    const int t1 = deliver_time(1);
    const int t4 = deliver_time(4);
    EXPECT_EQ(t4 - t1, 3);
}

TEST(Crossbar, ClockRatioSlowsDelivery)
{
    auto deliver_time = [](double ratio) {
        Crossbar x(params(1, 1, ratio));
        x.inject(packet(0, 0, 4));
        int t = 0;
        while (t < 100) {
            ++t;
            x.tick();
            if (x.eject(0))
                break;
        }
        return t;
    };
    // Half-rate NoC takes about twice as long.
    EXPECT_NEAR(deliver_time(0.5), 2 * deliver_time(1.0), 2);
}

TEST(Crossbar, InputBackpressure)
{
    XbarParams p = params(1, 1);
    p.inputQueueCap = 2;
    Crossbar x(p);
    x.inject(packet(0, 0));
    x.inject(packet(0, 0));
    EXPECT_FALSE(x.canInject(0));
    x.tick();
    EXPECT_TRUE(x.canInject(0));
}

TEST(Crossbar, OutputQueueBackpressure)
{
    // Without ejection the output queue fills and transfers stop.
    XbarParams p = params(1, 1);
    p.outputQueueCap = 2;
    Crossbar x(p);
    for (int i = 0; i < 6; ++i)
        if (x.canInject(0))
            x.inject(packet(0, 0));
    for (int t = 0; t < 50; ++t)
        x.tick();
    // Only outputQueueCap packets were delivered.
    EXPECT_EQ(x.packetsDelivered(), 2u);
}

TEST(Crossbar, RejectsBadPorts)
{
    Crossbar x(params(2, 2));
    EXPECT_DEATH(x.inject(packet(2, 0)), "out of range");
    EXPECT_DEATH(x.inject(packet(0, 5)), "out of range");
}

TEST(Crossbar, RejectsZeroQueueCaps)
{
    XbarParams no_input = params(2, 2);
    no_input.inputQueueCap = 0;
    EXPECT_EXIT(Crossbar{no_input}, ::testing::ExitedWithCode(1),
                "queue capacities must be nonzero");
    XbarParams no_output = params(2, 2);
    no_output.outputQueueCap = 0;
    EXPECT_EXIT(Crossbar{no_output}, ::testing::ExitedWithCode(1),
                "queue capacities must be nonzero");
}

TEST(Crossbar, TracksOutputFlits)
{
    Crossbar x(params(2, 2));
    x.inject(packet(0, 1, 3));
    for (int t = 0; t < 20; ++t) {
        x.tick();
        x.eject(1);
    }
    EXPECT_EQ(x.outputFlits(1), 3u);
    EXPECT_EQ(x.outputFlits(0), 0u);
    EXPECT_GT(x.outputUtilization(1), 0.0);
}

/** Property: no packets are lost or duplicated under random load. */
class XbarConservationTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t, double>>
{
};

TEST_P(XbarConservationTest, PacketsConserved)
{
    const auto [ins, outs, load] = GetParam();
    Crossbar x(params(ins, outs, 0.5));
    Rng rng(ins * 1000 + outs);
    std::uint64_t injected = 0, ejected = 0;
    std::vector<std::uint64_t> per_dst(outs, 0);

    for (int t = 0; t < 4000; ++t) {
        for (std::uint32_t in = 0; in < ins; ++in) {
            if (rng.uniform() < load && x.canInject(in)) {
                Packet p = packet(in, std::uint32_t(rng.below(outs)),
                                  1 + std::uint32_t(rng.below(4)));
                ++per_dst[p.dst];
                x.inject(std::move(p));
                ++injected;
            }
        }
        x.tick();
        for (std::uint32_t out = 0; out < outs; ++out) {
            while (auto p = x.eject(out)) {
                EXPECT_EQ(p->dst, out);
                ++ejected;
            }
        }
    }
    // Drain.
    for (int t = 0; t < 2000 && x.busy(); ++t) {
        x.tick();
        for (std::uint32_t out = 0; out < outs; ++out)
            while (x.eject(out))
                ++ejected;
    }
    EXPECT_EQ(injected, ejected);
    EXPECT_FALSE(x.busy());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, XbarConservationTest,
    ::testing::Values(std::make_tuple(2u, 1u, 0.3),
                      std::make_tuple(8u, 4u, 0.2),
                      std::make_tuple(80u, 32u, 0.05),
                      std::make_tuple(80u, 40u, 0.1),
                      std::make_tuple(10u, 8u, 0.4),
                      std::make_tuple(1u, 1u, 0.9)));

/** Property: saturated uniform traffic achieves decent throughput. */
TEST(Crossbar, SaturationThroughput)
{
    Crossbar x(params(16, 16, 1.0));
    Rng rng(5);
    std::uint64_t ejected = 0;
    const int cycles = 5000;
    for (int t = 0; t < cycles; ++t) {
        for (std::uint32_t in = 0; in < 16; ++in)
            while (x.canInject(in))
                x.inject(packet(in, std::uint32_t(rng.below(16))));
        x.tick();
        for (std::uint32_t out = 0; out < 16; ++out)
            while (x.eject(out))
                ++ejected;
    }
    // Single-iteration iSLIP on uniform traffic: >= 60 % of capacity.
    EXPECT_GT(double(ejected) / cycles, 0.6 * 16);
}

/** Property: inputs are served fairly under symmetric load. */
TEST(Crossbar, Fairness)
{
    Crossbar x(params(4, 1, 1.0));
    std::vector<std::uint64_t> served(4, 0);
    for (int t = 0; t < 4000; ++t) {
        for (std::uint32_t in = 0; in < 4; ++in)
            if (x.canInject(in))
                x.inject(packet(in, 0));
        x.tick();
        while (auto p = x.eject(0))
            ++served[p->src];
    }
    const double total = served[0] + served[1] + served[2] + served[3];
    for (int in = 0; in < 4; ++in)
        EXPECT_NEAR(served[in] / total, 0.25, 0.05);
}

/**
 * Reference model: the crossbar's earlier allocator over std::deque
 * VOQs and output queues. The grant phase walks every input with a
 * `%` for each free output; the accept phase loops over all grants for
 * each input. Timing, backpressure and pointer rules are Crossbar's.
 */
class ScanCrossbar
{
  public:
    explicit ScanCrossbar(const XbarParams &p)
        : p_(p), voq_(std::size_t(p.numInputs) * p.numOutputs),
          occ_(p.numInputs, 0), grantPtr_(p.numOutputs, 0),
          acceptPtr_(p.numInputs, 0), inputFreeAt_(p.numInputs, 0),
          outputFreeAt_(p.numOutputs, 0), outReserved_(p.numOutputs, 0),
          outQ_(p.numOutputs)
    {
    }

    bool canInject(std::uint32_t in) const
    {
        return occ_[in] < p_.inputQueueCap;
    }

    void
    inject(Packet pkt)
    {
        ++occ_[pkt.src];
        voq(pkt.src, pkt.dst).push_back(std::move(pkt));
    }

    std::optional<Packet>
    eject(std::uint32_t out)
    {
        auto &q = outQ_[out];
        if (q.empty())
            return std::nullopt;
        Packet pkt = std::move(q.front());
        q.pop_front();
        return pkt;
    }

    void
    tick()
    {
        phase_ += p_.clockRatio;
        while (phase_ >= 1.0) {
            phase_ -= 1.0;
            nocTick();
        }
    }

    /** Free outputs skipped because their queue had no room. */
    std::uint64_t backpressured() const { return backpressured_; }

  private:
    std::deque<Packet> &
    voq(std::uint32_t in, std::uint32_t out)
    {
        return voq_[std::size_t(in) * p_.numOutputs + out];
    }

    void
    nocTick()
    {
        ++now_;
        for (std::size_t i = 0; i < inTransit_.size();) {
            if (inTransit_[i].first > now_) {
                ++i;
                continue;
            }
            Packet pkt = std::move(inTransit_[i].second);
            inTransit_[i] = std::move(inTransit_.back());
            inTransit_.pop_back();
            --outReserved_[pkt.dst];
            outQ_[pkt.dst].push_back(std::move(pkt));
        }
        allocate();
    }

    void
    allocate()
    {
        const std::uint32_t ins = p_.numInputs;
        const std::uint32_t outs = p_.numOutputs;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> grants;
        for (std::uint32_t out = 0; out < outs; ++out) {
            if (outputFreeAt_[out] > now_)
                continue;
            if (outQ_[out].size() + outReserved_[out] >= p_.outputQueueCap) {
                ++backpressured_;
                continue;
            }
            for (std::uint32_t off = 0; off < ins; ++off) {
                const std::uint32_t in = (grantPtr_[out] + off) % ins;
                if (!voq(in, out).empty() && inputFreeAt_[in] <= now_) {
                    grants.emplace_back(in, out);
                    break;
                }
            }
        }
        for (std::uint32_t in = 0; in < ins; ++in) {
            std::uint32_t best = outs;
            std::uint32_t best_dist = outs;
            for (const auto &[g_in, out] : grants) {
                const std::uint32_t dist =
                    (out + outs - acceptPtr_[in]) % outs;
                if (g_in == in && dist < best_dist) {
                    best = out;
                    best_dist = dist;
                }
            }
            if (best == outs)
                continue;
            auto &q = voq(in, best);
            Packet pkt = std::move(q.front());
            q.pop_front();
            --occ_[in];
            const Cycle busy = pkt.flits;
            inputFreeAt_[in] = now_ + busy;
            outputFreeAt_[best] = now_ + busy;
            ++outReserved_[best];
            inTransit_.emplace_back(now_ + busy + p_.routerLatency,
                                    std::move(pkt));
            grantPtr_[best] = (in + 1) % ins;
            acceptPtr_[in] = (best + 1) % outs;
        }
    }

    XbarParams p_;
    std::vector<std::deque<Packet>> voq_;
    std::vector<std::uint32_t> occ_;
    std::vector<std::uint32_t> grantPtr_;
    std::vector<std::uint32_t> acceptPtr_;
    std::vector<Cycle> inputFreeAt_;
    std::vector<Cycle> outputFreeAt_;
    std::vector<std::uint32_t> outReserved_;
    std::vector<std::pair<Cycle, Packet>> inTransit_;
    std::vector<std::deque<Packet>> outQ_;
    Cycle now_ = 0;
    double phase_ = 0.0;
    std::uint64_t backpressured_ = 0;
};

/**
 * Differential property: under identical random traffic (1-5 flit
 * packets, heavy enough to fill VOQs) and random ejection stalls (so
 * output queues fill too), Crossbar delivers exactly what the scan
 * model delivers, in the same NoC cycle, order and port.
 */
class XbarDifferentialTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>>
{
};

TEST_P(XbarDifferentialTest, MatchesScanAllocator)
{
    const auto [ins, outs] = GetParam();
    // One NoC cycle per tick, so the tick below is the NoC cycle.
    const XbarParams p = params(ins, outs, 1.0);
    Crossbar x(p);
    ScanCrossbar ref(p);
    Rng rng(ins * 1000 + outs);

    // (NoC cycle, output, src, endpoint) of every ejected packet.
    using Delivery = std::array<std::uint64_t, 4>;
    std::vector<Delivery> got;
    std::vector<Delivery> want;
    std::uint64_t refused = 0;
    std::uint32_t next_id = 0;
    for (std::uint64_t t = 1; t <= 3000; ++t) {
        for (std::uint32_t in = 0; in < ins; ++in) {
            if (!rng.chance(0.3))
                continue;
            ASSERT_EQ(x.canInject(in), ref.canInject(in))
                << "cycle " << t << " input " << in;
            if (!x.canInject(in)) {
                ++refused;
                continue;
            }
            Packet a = packet(in, std::uint32_t(rng.below(outs)),
                              1 + std::uint32_t(rng.below(5)));
            a.endpoint = next_id++;
            Packet b = packet(a.src, a.dst, a.flits);
            b.endpoint = a.endpoint;
            x.inject(std::move(a));
            ref.inject(std::move(b));
        }
        x.tick();
        ref.tick();
        // A stalled output ejects nothing this cycle; a live one
        // ejects at most one packet.
        for (std::uint32_t out = 0; out < outs; ++out) {
            if (rng.chance(0.6))
                continue;
            if (auto pkt = x.eject(out))
                got.push_back({t, out, pkt->src, pkt->endpoint});
            if (auto pkt = ref.eject(out))
                want.push_back({t, out, pkt->src, pkt->endpoint});
        }
    }
    // The traffic engaged input and output backpressure.
    EXPECT_GT(refused, 0u);
    EXPECT_GT(ref.backpressured(), 0u);
    EXPECT_GT(want.size(), 1000u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "delivery " << i;
}

// 65 and 128 ports reach the second mask word; every geometry wraps
// its grant and accept pointers many times.
INSTANTIATE_TEST_SUITE_P(
    Geometries, XbarDifferentialTest,
    ::testing::Values(std::make_tuple(80u, 32u), std::make_tuple(32u, 80u),
                      std::make_tuple(8u, 4u), std::make_tuple(10u, 8u),
                      std::make_tuple(65u, 3u),
                      std::make_tuple(128u, 128u)),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "x" +
               std::to_string(std::get<1>(info.param));
    });

} // anonymous namespace
