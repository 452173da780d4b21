#include "noc/crossbar.hh"

#include <algorithm>

#include "check/check.hh"
#include "check/request_ledger.hh"
#include "common/log.hh"
#include "prof/prof.hh"

namespace dcl1::noc
{

Crossbar::Crossbar(const XbarParams &params)
    : params_(params), statGroup_(params.name)
{
    if (params.numInputs == 0 || params.numInputs > 128 ||
        params.numOutputs == 0 || params.numOutputs > 128) {
        fatal("Crossbar %s: ports must be 1..128 (got %ux%u)",
              params.name.c_str(), params.numInputs, params.numOutputs);
    }
    if (params.clockRatio <= 0.0 || params.clockRatio > 4.0)
        fatal("Crossbar %s: bad clock ratio %f", params.name.c_str(),
              params.clockRatio);

    voq_.resize(std::size_t(params.numInputs) * params.numOutputs);
    inputOcc_.assign(params.numInputs, 0);
    reqBits_.assign(params.numOutputs, {0, 0});
    grantPtr_.assign(params.numOutputs, 0);
    acceptPtr_.assign(params.numInputs, 0);
    inputFreeAt_.assign(params.numInputs, 0);
    outputFreeAt_.assign(params.numOutputs, 0);
    outReserved_.assign(params.numOutputs, 0);
    outQ_.resize(params.numOutputs);
    outputFlits_.assign(params.numOutputs, 0);

    statGroup_.addScalar("packets", &delivered_);
    statGroup_.addScalar("flits", &flits_);
    statGroup_.addScalar("latency_sum", &latencySum_);
}

bool
Crossbar::canInject(std::uint32_t input) const
{
    return inputOcc_[input] < params_.inputQueueCap;
}

void
Crossbar::inject(Packet pkt)
{
    if (pkt.src >= params_.numInputs || pkt.dst >= params_.numOutputs)
        panic("Crossbar %s: inject %u->%u out of range (%ux%u)",
              params_.name.c_str(), pkt.src, pkt.dst, params_.numInputs,
              params_.numOutputs);
    if (!canInject(pkt.src))
        panic("Crossbar %s: inject to full input %u",
              params_.name.c_str(), pkt.src);
    if (pkt.flits == 0)
        panic("Crossbar %s: zero-flit packet", params_.name.c_str());

    pkt.injectedAt = nocCycle_;
    DCL1_CHECK_ONLY({
        if (pkt.req)
            check::ledger().onTransition(*pkt.req,
                                         check::ReqStage::InNoc);
        ++chkInjectedPkts_;
        chkInjectedFlits_ += pkt.flits;
    });
    auto &q = voq_[voqIndex(pkt.src, pkt.dst)];
    if (q.empty())
        reqBits_[pkt.dst][pkt.src / 64] |= 1ull << (pkt.src % 64);
    ++inputOcc_[pkt.src];
    q.push_back(std::move(pkt));
}

std::optional<Packet>
Crossbar::eject(std::uint32_t output)
{
    auto &q = outQ_[output];
    if (q.empty())
        return std::nullopt;
    Packet pkt = std::move(q.front());
    q.pop_front();
    DCL1_CHECK_ONLY(++chkEjectedPkts_);
    return pkt;
}

bool
Crossbar::hasEjectable(std::uint32_t output) const
{
    return !outQ_[output].empty();
}

void
Crossbar::tick()
{
    // busy() is an O(ports) scan; only pay for it while profiled.
    if (prof::active() && !busy())
        DCL1_PROF_COUNT(QuiescentXbar, 1);
    phase_ += params_.clockRatio;
    while (phase_ >= 1.0) {
        phase_ -= 1.0;
        nocTick();
    }
}

void
Crossbar::nocTick()
{
    ++nocCycle_;

    // Land packets that finished switch traversal + pipeline.
    for (std::size_t i = 0; i < inTransit_.size();) {
        if (inTransit_[i].first <= nocCycle_) {
            Packet pkt = std::move(inTransit_[i].second);
            inTransit_[i] = std::move(inTransit_.back());
            inTransit_.pop_back();
            --outReserved_[pkt.dst];
            ++delivered_;
            flits_ += pkt.flits;
            outputFlits_[pkt.dst] += pkt.flits;
            latencySum_ += nocCycle_ - pkt.injectedAt;
            DCL1_CHECK_ONLY({
                ++chkDeliveredPkts_;
                chkDeliveredFlits_ += pkt.flits;
            });
            outQ_[pkt.dst].push_back(std::move(pkt));
        } else {
            ++i;
        }
    }

    allocate();

#if DCL1_CHECK_ENABLED
    // Full-state audit is O(inputs * outputs); amortize it.
    if ((nocCycle_ & 63) == 0)
        checkInvariants();
#endif
}

void
Crossbar::allocate()
{
    // --- single-iteration iSLIP ---
    // Grant phase: each free output grants one requesting, free input.
    // (input, output) pairs; small, bounded by numOutputs.
    std::array<std::pair<std::uint32_t, std::uint32_t>, 128> grants;
    std::uint32_t num_grants = 0;

    for (std::uint32_t out = 0; out < params_.numOutputs; ++out) {
        if (outputFreeAt_[out] > nocCycle_)
            continue;
        // Backpressure: don't start a transfer that could overflow the
        // output queue.
        if (outQ_[out].size() + outReserved_[out] >= params_.outputQueueCap)
            continue;
        const auto &bits = reqBits_[out];
        // Find the first requesting *and currently free* input at or
        // after the grant pointer.
        std::uint32_t granted = params_.numInputs;
        for (std::uint32_t off = 0; off < params_.numInputs; ++off) {
            const std::uint32_t in =
                (grantPtr_[out] + off) % params_.numInputs;
            if (!(bits[in / 64] & (1ull << (in % 64))))
                continue;
            if (inputFreeAt_[in] > nocCycle_)
                continue;
            granted = in;
            break;
        }
        if (granted < params_.numInputs)
            grants[num_grants++] = {granted, out};
    }

    // Accept phase: each input accepts at most one grant (RR pointer).
    for (std::uint32_t in = 0; in < params_.numInputs; ++in) {
        std::uint32_t best_out = params_.numOutputs;
        std::uint32_t best_dist = params_.numOutputs;
        for (std::uint32_t g = 0; g < num_grants; ++g) {
            if (grants[g].first != in)
                continue;
            const std::uint32_t out = grants[g].second;
            const std::uint32_t dist =
                (out + params_.numOutputs - acceptPtr_[in]) %
                params_.numOutputs;
            if (dist < best_dist) {
                best_dist = dist;
                best_out = out;
            }
        }
        if (best_out == params_.numOutputs)
            continue;

        // Start the transfer.
        auto &q = voq_[voqIndex(in, best_out)];
        Packet pkt = std::move(q.front());
        q.pop_front();
        if (q.empty())
            reqBits_[best_out][in / 64] &= ~(1ull << (in % 64));
        --inputOcc_[in];

        const Cycle busy = pkt.flits;
        inputFreeAt_[in] = nocCycle_ + busy;
        outputFreeAt_[best_out] = nocCycle_ + busy;
        ++outReserved_[best_out];
        inTransit_.emplace_back(
            nocCycle_ + busy + params_.routerLatency, std::move(pkt));

        // iSLIP pointer updates on successful match.
        grantPtr_[best_out] = (in + 1) % params_.numInputs;
        acceptPtr_[in] = (best_out + 1) % params_.numOutputs;
    }
}

std::size_t
Crossbar::pendingPackets() const
{
    std::size_t pending = inTransit_.size();
    for (const auto occ : inputOcc_)
        pending += occ;
    for (const auto &q : outQ_)
        pending += q.size();
    return pending;
}

void
Crossbar::checkInvariants() const
{
#if DCL1_CHECK_ENABLED
    // Per-input credit accounting vs. actual VOQ occupancy, and
    // request bits exactly mirroring VOQ non-emptiness.
    for (std::uint32_t in = 0; in < params_.numInputs; ++in) {
        std::size_t occ = 0;
        for (std::uint32_t out = 0; out < params_.numOutputs; ++out) {
            const auto &q = voq_[voqIndex(in, out)];
            occ += q.size();
            const bool bit =
                (reqBits_[out][in / 64] >> (in % 64)) & 1ull;
            if (bit != !q.empty())
                panic("Crossbar %s: request bit %u->%u is %d but VOQ "
                      "holds %zu packets",
                      params_.name.c_str(), in, out, int(bit), q.size());
        }
        if (occ != inputOcc_[in])
            panic("Crossbar %s: input %u credit count %u != VOQ "
                  "occupancy %zu",
                  params_.name.c_str(), in, inputOcc_[in], occ);
        if (occ > params_.inputQueueCap)
            panic("Crossbar %s: input %u over capacity (%zu > %u)",
                  params_.name.c_str(), in, occ, params_.inputQueueCap);
    }

    // Output reservations vs. in-transit packets, and bounded output
    // queues (a reservation is a credit for a future outQ slot).
    std::vector<std::uint32_t> transit(params_.numOutputs, 0);
    std::uint64_t transit_flits = 0;
    for (const auto &t : inTransit_) {
        ++transit[t.second.dst];
        transit_flits += t.second.flits;
    }
    for (std::uint32_t out = 0; out < params_.numOutputs; ++out) {
        if (transit[out] != outReserved_[out])
            panic("Crossbar %s: output %u reservations %u != in-transit "
                  "packets %u",
                  params_.name.c_str(), out, outReserved_[out],
                  transit[out]);
        if (outQ_[out].size() + outReserved_[out] >
            params_.outputQueueCap)
            panic("Crossbar %s: output %u overcommitted (%zu queued + "
                  "%u reserved > cap %u)",
                  params_.name.c_str(), out, outQ_[out].size(),
                  outReserved_[out], params_.outputQueueCap);
    }

    // Conservation: every packet/flit ever injected is delivered or
    // still buffered or traversing (flits in == flits out per crossing).
    std::uint64_t voq_flits = 0;
    std::uint64_t voq_pkts = 0;
    for (const auto &q : voq_) {
        voq_pkts += q.size();
        for (const auto &p : q)
            voq_flits += p.flits;
    }
    if (chkInjectedPkts_ !=
        chkDeliveredPkts_ + voq_pkts + inTransit_.size())
        panic("Crossbar %s: packet conservation broken (%llu injected, "
              "%llu delivered, %llu buffered, %zu in transit)",
              params_.name.c_str(),
              static_cast<unsigned long long>(chkInjectedPkts_),
              static_cast<unsigned long long>(chkDeliveredPkts_),
              static_cast<unsigned long long>(voq_pkts),
              inTransit_.size());
    if (chkInjectedFlits_ !=
        chkDeliveredFlits_ + voq_flits + transit_flits)
        panic("Crossbar %s: flit conservation broken (%llu injected, "
              "%llu delivered, %llu buffered, %llu in transit)",
              params_.name.c_str(),
              static_cast<unsigned long long>(chkInjectedFlits_),
              static_cast<unsigned long long>(chkDeliveredFlits_),
              static_cast<unsigned long long>(voq_flits),
              static_cast<unsigned long long>(transit_flits));

    // Delivered packets either left through eject() or still wait in
    // an output queue.
    std::size_t outq_pkts = 0;
    for (const auto &q : outQ_)
        outq_pkts += q.size();
    if (chkDeliveredPkts_ != chkEjectedPkts_ + outq_pkts)
        panic("Crossbar %s: output-queue conservation broken "
              "(%llu delivered, %llu ejected, %zu queued)",
              params_.name.c_str(),
              static_cast<unsigned long long>(chkDeliveredPkts_),
              static_cast<unsigned long long>(chkEjectedPkts_),
              outq_pkts);
#endif // DCL1_CHECK_ENABLED
}

bool
Crossbar::busy() const
{
    if (!inTransit_.empty())
        return true;
    for (const auto &occ : inputOcc_)
        if (occ)
            return true;
    for (const auto &q : outQ_)
        if (!q.empty())
            return true;
    return false;
}

std::uint64_t
Crossbar::outputFlits(std::uint32_t output) const
{
    return outputFlits_[output];
}

double
Crossbar::outputUtilization(std::uint32_t output) const
{
    const Cycle cycles = nocCycle_ - statStartCycle_;
    return cycles ? double(outputFlits_[output]) / double(cycles) : 0.0;
}

double
Crossbar::avgPacketLatency() const
{
    const auto n = delivered_.value();
    return n ? double(latencySum_.value()) / double(n) : 0.0;
}

void
Crossbar::resetStats()
{
    delivered_.reset();
    flits_.reset();
    latencySum_.reset();
    std::fill(outputFlits_.begin(), outputFlits_.end(), 0);
    statStartCycle_ = nocCycle_;
}

} // namespace dcl1::noc
