#include "noc/cdxbar.hh"

#include "check/check.hh"
#include "common/log.hh"

namespace dcl1::noc
{

CdXbarNet::CdXbarNet(const CdxParams &params) : Net(params.name)
{
    if (params.clusters == 0 || params.perCluster == 0 ||
        params.trunksPerCluster == 0 || params.globalPorts == 0) {
        fatal("CdXbarNet %s: all geometry fields must be nonzero",
              params.name.c_str());
    }

    const bool conc = params.direction == CdxDirection::Concentrate;
    const std::uint32_t per = params.perCluster;
    const std::uint32_t k = params.trunksPerCluster;
    std::vector<Crossbar *> locals;
    for (std::uint32_t z = 0; z < params.clusters; ++z) {
        XbarParams xp;
        xp.name = params.name + ".local" + std::to_string(z);
        xp.numInputs = conc ? per : k;
        xp.numOutputs = conc ? k : per;
        xp.clockRatio = params.localClockRatio;
        locals.push_back(&addXbar(xp, 1));
    }

    XbarParams gp;
    gp.name = params.name + ".global";
    const std::uint32_t trunks = params.clusters * k;
    gp.numInputs = conc ? trunks : params.globalPorts;
    gp.numOutputs = conc ? params.globalPorts : trunks;
    gp.clockRatio = params.globalClockRatio;
    Crossbar *global = &addXbar(gp, 2);

    // Cores attach to their cluster's local crossbar, slices to the
    // global one; trunk z * K + k joins local z's port k to the global
    // crossbar.
    std::vector<Port> near;
    for (std::uint32_t e = 0; e < params.clusters * per; ++e)
        near.push_back({locals[e / per], e % per});
    std::vector<Port> far;
    for (std::uint32_t e = 0; e < params.globalPorts; ++e)
        far.push_back({global, e});
    for (std::uint32_t t = 0; t < trunks; ++t) {
        const Port local{locals[t / k], t % k};
        const Port trunk{global, t};
        trunks_.push_back(conc ? Trunk{local, trunk} : Trunk{trunk, local});
    }

    injectAt_ = conc ? near : far;
    ejectAt_ = conc ? far : near;
    for (std::uint32_t dst = 0; dst < ejectAt_.size(); ++dst) {
        // Concentrate: the trunk is chosen by final destination so
        // traffic to different slices spreads over the K trunks.
        // Distribute: a trunk of the destination cluster, again chosen
        // by destination index for spread.
        firstHop_.push_back(conc ? dst % k : (dst / per) * k + dst % k);
    }
}

void
CdXbarNet::tick()
{
    Net::tick();

#if DCL1_CHECK_ENABLED
    if ((++tickCount_ & 63) == 0)
        checkInvariants();
#endif

    // Move packets that finished one stage into the next, respecting
    // input-queue backpressure.
    for (const Trunk &t : trunks_) {
        while (t.from.xbar->hasEjectable(t.from.port) &&
               t.to.xbar->canInject(t.to.port)) {
            Packet pkt = std::move(*t.from.xbar->eject(t.from.port));
            pkt.src = t.to.port;
            pkt.dst = ejectAt_[pkt.endpoint].port;
            t.to.xbar->inject(std::move(pkt));
        }
    }
}

} // namespace dcl1::noc
