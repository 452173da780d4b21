#include "noc/net.hh"

#include "check/check.hh"
#include "common/log.hh"

namespace dcl1::noc
{

Net::Net(const NetParams &params) : name_(params.name)
{
    for (std::uint32_t i = 0; i < params.count; ++i) {
        XbarParams xp;
        xp.name = params.indexed ? params.name + std::to_string(i)
                                 : params.name;
        xp.numInputs = params.inputs;
        xp.numOutputs = params.outputs;
        xp.clockRatio = params.clockRatio;
        addXbar(xp, params.level);
    }
    auto attach = [&](std::uint32_t e, std::uint32_t ports) {
        if (params.interleaved)
            return Port{xbars_[e % params.count].xbar.get(),
                        e / params.count};
        return Port{xbars_[e / ports].xbar.get(), e % ports};
    };
    for (std::uint32_t e = 0; e < params.count * params.inputs; ++e)
        injectAt_.push_back(attach(e, params.inputs));
    for (std::uint32_t e = 0; e < params.count * params.outputs; ++e) {
        ejectAt_.push_back(attach(e, params.outputs));
        firstHop_.push_back(ejectAt_.back().port);
    }
}

Crossbar &
Net::addXbar(const XbarParams &params, std::uint32_t level)
{
    xbars_.push_back({std::make_unique<Crossbar>(params), level});
    return *xbars_.back().xbar;
}

void
Net::inject(std::uint32_t src, std::uint32_t dst, mem::MemRequestPtr req,
            std::uint32_t flits)
{
    const Port &at = injectAt_[src];
    Packet pkt;
    pkt.src = at.port;
    pkt.dst = firstHop_[dst];
    pkt.flits = flits;
    pkt.endpoint = dst;
    pkt.req = std::move(req);
    DCL1_CHECK_ONLY(++chkInjectedPkts_);
    at.xbar->inject(std::move(pkt));
}

mem::MemRequestPtr
Net::eject(std::uint32_t dst)
{
    const Port &at = ejectAt_[dst];
    std::optional<Packet> pkt = at.xbar->eject(at.port);
    if (!pkt)
        return nullptr;
    DCL1_CHECK_ONLY({
        ++chkEjectedPkts_;
        if (pkt->endpoint != dst)
            panic("Net %s: packet for endpoint %u ejected at %u",
                  name_.c_str(), pkt->endpoint, dst);
    });
    return std::move(pkt->req);
}

void
Net::tick()
{
    for (auto &m : xbars_)
        m.xbar->tick();
}

bool
Net::busy() const
{
    for (const auto &m : xbars_)
        if (m.xbar->busy())
            return true;
    return false;
}

void
Net::resetStats()
{
    for (auto &m : xbars_)
        m.xbar->resetStats();
}

void
Net::checkInvariants() const
{
#if DCL1_CHECK_ENABLED
    std::size_t inside = 0;
    for (const auto &m : xbars_) {
        m.xbar->checkInvariants();
        inside += m.xbar->pendingPackets();
    }
    if (chkInjectedPkts_ != chkEjectedPkts_ + inside)
        panic("Net %s: packet conservation broken "
              "(%llu injected, %llu ejected, %zu inside)",
              name_.c_str(),
              static_cast<unsigned long long>(chkInjectedPkts_),
              static_cast<unsigned long long>(chkEjectedPkts_), inside);
#endif // DCL1_CHECK_ENABLED
}

} // namespace dcl1::noc
