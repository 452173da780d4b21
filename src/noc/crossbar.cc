#include "noc/crossbar.hh"

#include <algorithm>
#include <bit>

#include "check/check.hh"
#include "check/request_ledger.hh"
#include "common/log.hh"
#include "prof/prof.hh"

namespace dcl1::noc
{

namespace
{

/** Bit of port @p p within its 64-bit word of a port mask. */
constexpr std::uint64_t
portBit(std::uint32_t p)
{
    return 1ull << (p & 63);
}

/**
 * The first port set in @p m at or after @p from (< 128), wrapping
 * round past the top: the round-robin winner for a priority pointer
 * at @p from. 128 when @p m is empty.
 */
std::uint32_t
firstFrom(const std::array<std::uint64_t, 2> &m, std::uint32_t from)
{
    const std::uint32_t w = from / 64;
    if (const std::uint64_t at = m[w] & (~0ull << (from & 63)))
        return w * 64 + std::countr_zero(at);
    if (w == 0 && m[1])
        return 64 + std::countr_zero(m[1]);
    if (m[0])
        return std::countr_zero(m[0]);
    return m[1] ? 64 + std::countr_zero(m[1]) : 128;
}

} // anonymous namespace

Crossbar::Crossbar(const XbarParams &params)
    : params_(params), statGroup_(params.name)
{
    if (params.numInputs == 0 || params.numInputs > 128 ||
        params.numOutputs == 0 || params.numOutputs > 128) {
        fatal("Crossbar %s: ports must be 1..128 (got %ux%u)",
              params.name.c_str(), params.numInputs, params.numOutputs);
    }
    if (params.inputQueueCap == 0 || params.outputQueueCap == 0)
        fatal("Crossbar %s: queue capacities must be nonzero (got "
              "input %u, output %u)",
              params.name.c_str(), params.inputQueueCap,
              params.outputQueueCap);
    if (params.clockRatio <= 0.0 || params.clockRatio > 4.0)
        fatal("Crossbar %s: bad clock ratio %f", params.name.c_str(),
              params.clockRatio);

    // Input i owns slots [i * cap, (i + 1) * cap), all free at first.
    const std::uint32_t cap = params.inputQueueCap;
    slots_.resize(std::size_t(params.numInputs) * cap);
    freeHead_.resize(params.numInputs);
    for (std::uint32_t in = 0; in < params.numInputs; ++in) {
        freeHead_[in] = in * cap;
        for (std::uint32_t s = in * cap; s + 1 < (in + 1) * cap; ++s)
            slots_[s].next = s + 1;
    }
    voq_.resize(std::size_t(params.numInputs) * params.numOutputs);
    inputOcc_.assign(params.numInputs, 0);
    reqBits_.assign(params.numOutputs, {0, 0});
    grants_.assign(params.numInputs, {0, 0});
    grantPtr_.assign(params.numOutputs, 0);
    acceptPtr_.assign(params.numInputs, 0);
    inputFreeAt_.assign(params.numInputs, 0);
    outputFreeAt_.assign(params.numOutputs, 0);
    outReserved_.assign(params.numOutputs, 0);
    outRing_.resize(std::size_t(params.numOutputs) * params.outputQueueCap);
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
    const std::uint32_t in = pkt.src;
    const std::uint32_t out = pkt.dst;

    // Take a free slot of the input and append it to the VOQ.
    const std::uint32_t s = freeHead_[in];
    DCL1_ASSERT(s != kNil, "Crossbar %s: input %u has credit but no free "
                "slot", params_.name.c_str(), in);
    Slot &slot = slots_[s];
    freeHead_[in] = slot.next;
    slot.pkt = std::move(pkt);
    slot.next = kNil;
    Voq &q = voq_[voqIndex(in, out)];
    if (q.head == kNil) {
        q.head = s;
        reqBits_[out][in / 64] |= portBit(in);
    } else {
        slots_[q.tail].next = s;
    }
    q.tail = s;
    ++inputOcc_[in];
}

Packet &
Crossbar::outSlot(std::uint32_t out, std::uint32_t pos)
{
    std::uint32_t i = outQ_[out].head + pos;
    if (i >= params_.outputQueueCap)
        i -= params_.outputQueueCap;
    return outRing_[std::size_t(out) * params_.outputQueueCap + i];
}

std::optional<Packet>
Crossbar::eject(std::uint32_t output)
{
    OutQueue &q = outQ_[output];
    if (q.size == 0)
        return std::nullopt;
    Packet pkt = std::move(outSlot(output, 0));
    if (++q.head == params_.outputQueueCap)
        q.head = 0;
    --q.size;
    DCL1_CHECK_ONLY(++chkEjectedPkts_);
    return pkt;
}

bool
Crossbar::hasEjectable(std::uint32_t output) const
{
    return outQ_[output].size != 0;
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
            const std::uint32_t out = pkt.dst;
            --outReserved_[out];
            ++delivered_;
            flits_ += pkt.flits;
            outputFlits_[out] += pkt.flits;
            latencySum_ += nocCycle_ - pkt.injectedAt;
            DCL1_CHECK_ONLY({
                ++chkDeliveredPkts_;
                chkDeliveredFlits_ += pkt.flits;
            });
            // The grant reserved this ring slot.
            OutQueue &q = outQ_[out];
            DCL1_ASSERT(q.size < params_.outputQueueCap,
                        "Crossbar %s: output %u ring overflow",
                        params_.name.c_str(), out);
            outSlot(out, q.size) = std::move(pkt);
            ++q.size;
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
    // Only inputs not still serializing a packet may be granted.
    PortMask free{0, 0};
    for (std::uint32_t in = 0; in < params_.numInputs; ++in)
        free[in / 64] |= std::uint64_t(inputFreeAt_[in] <= nocCycle_)
                         << (in & 63);

    // Grant phase: each free output grants the first requesting, free
    // input at or after its grant pointer.
    PortMask granted{0, 0};
    for (std::uint32_t out = 0; out < params_.numOutputs; ++out) {
        const PortMask req{reqBits_[out][0] & free[0],
                           reqBits_[out][1] & free[1]};
        if (!(req[0] | req[1]) || outputFreeAt_[out] > nocCycle_)
            continue;
        // Backpressure: don't start a transfer that could overflow the
        // output queue.
        if (outQ_[out].size + outReserved_[out] >= params_.outputQueueCap)
            continue;
        const std::uint32_t in = firstFrom(req, grantPtr_[out]);
        granted[in / 64] |= portBit(in);
        grants_[in][out / 64] |= portBit(out);
    }

    // Accept phase, in ascending input order: each granted input takes
    // the first granting output at or after its accept pointer.
    for (std::uint32_t w = 0; w < 2; ++w) {
        for (std::uint64_t m = granted[w]; m; m &= m - 1) {
            const std::uint32_t in = w * 64 + std::countr_zero(m);
            const std::uint32_t out = firstFrom(grants_[in], acceptPtr_[in]);
            grants_[in] = {0, 0};

            // Start the transfer: the VOQ head slot returns to the
            // input's free list.
            Voq &q = voq_[voqIndex(in, out)];
            const std::uint32_t s = q.head;
            Slot &slot = slots_[s];
            q.head = slot.next;
            if (q.head == kNil) {
                q.tail = kNil;
                reqBits_[out][in / 64] &= ~portBit(in);
            }
            slot.next = freeHead_[in];
            freeHead_[in] = s;
            --inputOcc_[in];

            const Cycle busy = slot.pkt.flits;
            inputFreeAt_[in] = nocCycle_ + busy;
            outputFreeAt_[out] = nocCycle_ + busy;
            ++outReserved_[out];
            inTransit_.emplace_back(nocCycle_ + busy + params_.routerLatency,
                                    std::move(slot.pkt));

            // iSLIP pointer updates on successful match.
            grantPtr_[out] = in + 1 == params_.numInputs ? 0 : in + 1;
            acceptPtr_[in] = out + 1 == params_.numOutputs ? 0 : out + 1;
        }
    }
}

std::size_t
Crossbar::pendingPackets() const
{
    std::size_t pending = inTransit_.size();
    for (const auto occ : inputOcc_)
        pending += occ;
    for (const auto &q : outQ_)
        pending += q.size;
    return pending;
}

void
Crossbar::checkInvariants() const
{
#if DCL1_CHECK_ENABLED
    // Every slot of an input is on exactly one of its lists: one of its
    // VOQs or its free list. Each VOQ holds only packets for its
    // output, ends at its tail, and has its request bit set exactly
    // when non-empty; the input's credit count equals its VOQ packets.
    const std::uint32_t cap = params_.inputQueueCap;
    std::vector<bool> seen(slots_.size(), false);
    auto visit = [&](std::uint32_t in, std::uint32_t s) {
        if (s >= slots_.size() || s / cap != in)
            panic("Crossbar %s: input %u links slot %u outside its "
                  "slots %u..%u",
                  params_.name.c_str(), in, s, in * cap,
                  (in + 1) * cap - 1);
        if (seen[s])
            panic("Crossbar %s: input %u slot %u is on two lists or a "
                  "list loops",
                  params_.name.c_str(), in, s);
        seen[s] = true;
    };
    std::uint64_t voq_pkts = 0;
    std::uint64_t voq_flits = 0;
    for (std::uint32_t in = 0; in < params_.numInputs; ++in) {
        std::uint32_t occ = 0;
        for (std::uint32_t out = 0; out < params_.numOutputs; ++out) {
            const Voq &q = voq_[voqIndex(in, out)];
            std::uint32_t len = 0;
            std::uint32_t last = kNil;
            for (std::uint32_t s = q.head; s != kNil;
                 s = slots_[s].next) {
                visit(in, s);
                const Packet &p = slots_[s].pkt;
                if (p.src != in || p.dst != out)
                    panic("Crossbar %s: VOQ %u->%u holds a packet for "
                          "%u->%u",
                          params_.name.c_str(), in, out, p.src, p.dst);
                voq_flits += p.flits;
                ++len;
                last = s;
            }
            if (last != q.tail)
                panic("Crossbar %s: VOQ %u->%u ends at slot %u, not at "
                      "its tail %u",
                      params_.name.c_str(), in, out, last, q.tail);
            const bool bit = reqBits_[out][in / 64] & portBit(in);
            if (bit != (len != 0))
                panic("Crossbar %s: request bit %u->%u is %d but VOQ "
                      "holds %u packets",
                      params_.name.c_str(), in, out, int(bit), len);
            occ += len;
        }
        std::uint32_t free = 0;
        for (std::uint32_t s = freeHead_[in]; s != kNil;
             s = slots_[s].next) {
            visit(in, s);
            ++free;
        }
        if (occ != inputOcc_[in])
            panic("Crossbar %s: input %u credit count %u != VOQ "
                  "occupancy %u",
                  params_.name.c_str(), in, inputOcc_[in], occ);
        if (occ + free != cap)
            panic("Crossbar %s: input %u has %u queued + %u free slots, "
                  "not its %u",
                  params_.name.c_str(), in, occ, free, cap);
        voq_pkts += occ;
    }

    // Output reservations vs. in-transit packets, and bounded output
    // queues (a reservation is a credit for a future ring slot).
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
        if (outQ_[out].size + outReserved_[out] > params_.outputQueueCap)
            panic("Crossbar %s: output %u overcommitted (%u queued + "
                  "%u reserved > cap %u)",
                  params_.name.c_str(), out, outQ_[out].size,
                  outReserved_[out], params_.outputQueueCap);
    }

    // Conservation: every packet/flit ever injected is delivered or
    // still buffered or traversing (flits in == flits out per crossing).
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
        outq_pkts += q.size;
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
        if (q.size)
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
