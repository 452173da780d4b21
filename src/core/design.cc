#include "core/design.hh"

#include <cmath>

#include "common/bitutils.hh"
#include "common/log.hh"
#include "noc/cdxbar.hh"

namespace dcl1::core
{

namespace
{

// The CDXBar hierarchy: 10 local crossbars of 4 trunks each.
constexpr std::uint32_t kCdxClusters = 10;
constexpr std::uint32_t kCdxTrunksPerCluster = 4;

// Link lengths (paper Sec. VIII): inside a cluster, across the chip.
constexpr double kShortLinkMm = 3.3;
constexpr double kLongLinkMm = 12.3;

} // anonymous namespace

std::string
SystemConfig::summary() const
{
    return csprintf(
        "%u cores, %u L2 slices, %u channels, %uB lines, L1 %uKB/%u-way "
        "lat %u, L2 %uKB/%u-way lat %u, NoC ratio %.2f",
        numCores, numL2Slices, numChannels, lineBytes, l1SizeBytes / 1024,
        l1Assoc, l1Latency, l2SliceSizeBytes / 1024, l2Assoc, l2Latency,
        kNocClockRatio);
}

void
SystemConfig::validate() const
{
    if (numCores == 0 || numL2Slices == 0 || numChannels == 0)
        fatal("platform: cores/L2 slices/DRAM channels must be nonzero "
              "(%u/%u/%u) — every crossbar would be zero-width",
              numCores, numL2Slices, numChannels);
    if (!isPowerOf2(lineBytes))
        fatal("platform: line size %uB is not a power of two",
              lineBytes);
    if (flitBytes == 0 || lineBytes % flitBytes != 0)
        fatal("platform: %uB flits do not divide %uB lines — a line "
              "could not be serialized into whole flits",
              flitBytes, lineBytes);
    if (chunkBytes == 0 || chunkBytes % lineBytes != 0)
        fatal("platform: %uB address-interleave chunks are not a "
              "multiple of %uB lines", chunkBytes, lineBytes);
    if (dram.rowBytes == 0 || dram.rowBytes % chunkBytes != 0)
        fatal("platform: %uB DRAM rows are not a nonzero multiple of "
              "%uB address-interleave chunks", dram.rowBytes, chunkBytes);
    if (dram.numBanks == 0 || dram.queueCap == 0)
        fatal("platform: DRAM banks/queue capacity must be nonzero "
              "(%u/%u)", dram.numBanks, dram.queueCap);

    struct CacheGeom
    {
        const char *level;
        std::uint32_t sizeBytes, assoc, mshrs, targets;
    };
    for (const CacheGeom &c :
         {CacheGeom{"L1", l1SizeBytes, l1Assoc, l1Mshrs,
                    l1TargetsPerMshr},
          CacheGeom{"L2", l2SliceSizeBytes, l2Assoc, l2Mshrs,
                    l2TargetsPerMshr}}) {
        if (c.assoc == 0)
            fatal("platform: %s associativity is zero", c.level);
        const std::uint32_t sets = c.sizeBytes / (lineBytes * c.assoc);
        if (sets == 0)
            fatal("platform: %s geometry %uB/%u-way/%uB lines yields "
                  "zero sets", c.level, c.sizeBytes, c.assoc, lineBytes);
        if (!isPowerOf2(sets))
            fatal("platform: %s geometry %uB/%u-way/%uB lines yields "
                  "%u sets (not a power of two)",
                  c.level, c.sizeBytes, c.assoc, lineBytes, sets);
        if (c.mshrs == 0 || c.targets == 0)
            fatal("platform: %s MSHR geometry %u x %u targets must be "
                  "nonzero", c.level, c.mshrs, c.targets);
    }

    if (nodeQueueCap == 0)
        fatal("platform: DC-L1 node queue capacity is zero — every "
              "request path would be permanently blocked");
}

void
DesignConfig::validate(const SystemConfig &sys) const
{
    if (noc1ClockRatio <= 0.0 || noc2ClockRatio <= 0.0)
        fatal("design %s: NoC clock ratios must be positive (%.3f/%.3f)",
              name.c_str(), noc1ClockRatio, noc2ClockRatio);
    if (l1CapacityScale <= 0.0)
        fatal("design %s: L1 capacity scale %.3f must be positive",
              name.c_str(), l1CapacityScale);
    if (topology != Topology::DcL1) {
        if (topology == Topology::CdXbar && sys.numCores % kCdxClusters != 0)
            fatal("design %s: %u cores not divisible by %u CdXbar "
                  "clusters", name.c_str(), sys.numCores, kCdxClusters);
        return;
    }
    if (numNodes == 0 || clusters == 0)
        fatal("design %s: nodes/clusters must be nonzero", name.c_str());
    if (sys.numCores % numNodes != 0)
        fatal("design %s: %u cores not divisible by %u DC-L1 nodes",
              name.c_str(), sys.numCores, numNodes);
    if (numNodes % clusters != 0)
        fatal("design %s: %u nodes not divisible by %u clusters",
              name.c_str(), numNodes, clusters);
    if (sys.numCores % clusters != 0)
        fatal("design %s: %u cores not divisible by %u clusters",
              name.c_str(), sys.numCores, clusters);
}

bool
DesignConfig::partitionedNoc2(const SystemConfig &sys) const
{
    const std::uint32_t m = nodesPerCluster();
    return topology == Topology::DcL1 && m > 1 && sys.numL2Slices % m == 0;
}

std::uint32_t
DesignConfig::l1LatencyFor(const SystemConfig &sys) const
{
    if (l1LatencyOverride >= 0)
        return static_cast<std::uint32_t>(l1LatencyOverride);
    std::uint32_t lat = sys.l1Latency;
    if (topology == Topology::DcL1) {
        // +7 % per capacity doubling from aggregation (paper Sec. VIII:
        // 28 -> 30 cycles for the 2x DC-L1s of Sh40+C10+Boost).
        const double doublings =
            std::log2(double(coresPerNode(sys)) * l1CapacityScale);
        if (doublings > 0.0) {
            lat = static_cast<std::uint32_t>(
                std::lround(double(lat) * (1.0 + 0.07 * doublings)));
        }
    }
    return lat;
}

std::uint32_t
DesignConfig::l1SizeFor(const SystemConfig &sys) const
{
    double size = double(sys.l1SizeBytes) * l1CapacityScale;
    if (topology == Topology::DcL1)
        size *= coresPerNode(sys);
    return static_cast<std::uint32_t>(size);
}

std::vector<std::unique_ptr<noc::Net>>
buildNoc(const DesignConfig &design, const SystemConfig &sys)
{
    std::vector<std::unique_ptr<noc::Net>> nets;
    const std::uint32_t l = sys.numL2Slices;
    const double noc2 = design.noc2ClockRatio;
    switch (design.topology) {
      case Topology::PrivateBaseline:
        nets.push_back(std::make_unique<noc::Net>(noc::NetParams{
            .name = "noc.req", .inputs = sys.numCores, .outputs = l,
            .clockRatio = noc2}));
        nets.push_back(std::make_unique<noc::Net>(noc::NetParams{
            .name = "noc.reply", .inputs = l, .outputs = sys.numCores,
            .clockRatio = noc2}));
        break;
      case Topology::CdXbar: {
        const noc::CdxParams req{
            .name = "cdx.req", .direction = noc::CdxDirection::Concentrate,
            .clusters = kCdxClusters,
            .perCluster = sys.numCores / kCdxClusters,
            .trunksPerCluster = kCdxTrunksPerCluster, .globalPorts = l,
            .localClockRatio = design.noc1ClockRatio,
            .globalClockRatio = noc2};
        nets.push_back(std::make_unique<noc::CdXbarNet>(req));

        noc::CdxParams rep = req;
        rep.name = "cdx.reply";
        rep.direction = noc::CdxDirection::Distribute;
        nets.push_back(std::make_unique<noc::CdXbarNet>(rep));
        break;
      }
      case Topology::DcL1: {
        // NoC#1: cluster z's cores and nodes share crossbar z.
        const std::uint32_t z = design.clusters;
        const std::uint32_t per = design.coresPerCluster(sys);
        const std::uint32_t m = design.nodesPerCluster();
        const double noc1 = design.noc1ClockRatio;
        nets.push_back(std::make_unique<noc::Net>(noc::NetParams{
            .name = "noc1.req", .indexed = true, .count = z,
            .inputs = per, .outputs = m, .clockRatio = noc1, .level = 1}));
        nets.push_back(std::make_unique<noc::Net>(noc::NetParams{
            .name = "noc1.reply", .indexed = true, .count = z,
            .inputs = m, .outputs = per, .clockRatio = noc1, .level = 1}));

        // NoC#2: partition g joins home g of every cluster to the
        // slices s with s % M == g; otherwise one full crossbar.
        const bool split = design.partitionedNoc2(sys);
        const std::uint32_t g = split ? m : 1;
        const std::uint32_t y = design.numNodes;
        nets.push_back(std::make_unique<noc::Net>(noc::NetParams{
            .name = "noc2.req", .indexed = split, .count = g,
            .inputs = y / g, .outputs = l / g, .clockRatio = noc2,
            .interleaved = true}));
        nets.push_back(std::make_unique<noc::Net>(noc::NetParams{
            .name = "noc2.reply", .indexed = split, .count = g,
            .inputs = l / g, .outputs = y / g, .clockRatio = noc2,
            .interleaved = true}));
        break;
      }
    }
    return nets;
}

std::vector<XbarGeometry>
crossbarInventory(const DesignConfig &design, const SystemConfig &sys)
{
    std::vector<XbarGeometry> inv;
    for (const auto &net : buildNoc(design, sys)) {
        const std::size_t first = inv.size();
        for (const noc::Net::Member &m : net->xbars()) {
            const noc::XbarParams &p = m.xbar->params();
            if (inv.size() > first && inv.back().level == m.level &&
                inv.back().numInputs == p.numInputs &&
                inv.back().numOutputs == p.numOutputs &&
                inv.back().clockRatio == p.clockRatio) {
                ++inv.back().count;
                continue;
            }
            inv.push_back({p.numInputs, p.numOutputs, 1, p.clockRatio,
                           m.level == 1 ? kShortLinkMm : kLongLinkMm,
                           m.level});
        }
    }
    return inv;
}

DesignConfig
baselineDesign()
{
    DesignConfig d;
    d.name = "Baseline";
    d.topology = Topology::PrivateBaseline;
    return d;
}

DesignConfig
privateDcl1(std::uint32_t num_nodes)
{
    DesignConfig d;
    d.name = csprintf("Pr%u", num_nodes);
    d.topology = Topology::DcL1;
    d.numNodes = num_nodes;
    d.clusters = num_nodes;
    return d;
}

DesignConfig
sharedDcl1(std::uint32_t num_nodes)
{
    DesignConfig d;
    d.name = csprintf("Sh%u", num_nodes);
    d.topology = Topology::DcL1;
    d.numNodes = num_nodes;
    d.clusters = 1;
    return d;
}

DesignConfig
clusteredDcl1(std::uint32_t num_nodes, std::uint32_t clusters, bool boost)
{
    DesignConfig d;
    d.topology = Topology::DcL1;
    d.numNodes = num_nodes;
    d.clusters = clusters;
    if (clusters == 1)
        d.name = csprintf("Sh%u", num_nodes);
    else if (clusters == num_nodes)
        d.name = csprintf("Pr%u", num_nodes);
    else
        d.name = csprintf("Sh%u+C%u", num_nodes, clusters);
    if (boost) {
        d.noc1ClockRatio = 2.0 * kNocClockRatio;
        d.name += "+Boost";
    }
    return d;
}

DesignConfig
cdxbarDesign(bool boost_local, bool boost_global)
{
    DesignConfig d;
    d.topology = Topology::CdXbar;
    d.name = "CDXBar";
    if (boost_local && boost_global)
        d.name += "+2xNoC";
    else if (boost_local)
        d.name += "+2xNoC1";
    if (boost_local)
        d.noc1ClockRatio = 2.0 * kNocClockRatio;
    if (boost_global)
        d.noc2ClockRatio = 2.0 * kNocClockRatio;
    return d;
}

DesignConfig
withPerfectL1(DesignConfig d)
{
    d.perfectL1 = true;
    d.name += "+Perfect";
    return d;
}

DesignConfig
withCapacityScale(DesignConfig d, double scale)
{
    d.l1CapacityScale = scale;
    d.name += csprintf("+%gxCap", scale);
    return d;
}

DesignConfig
withL1Latency(DesignConfig d, std::int32_t latency)
{
    d.l1LatencyOverride = latency;
    d.name += csprintf("+Lat%d", latency);
    return d;
}

DesignConfig
withDistributedCta(DesignConfig d)
{
    d.distributedCta = true;
    d.name += "+DistCTA";
    return d;
}

DesignConfig
withFullLineReplies(DesignConfig d)
{
    d.fullLineReplies = true;
    d.name += "+FullLine";
    return d;
}

DesignConfig
designByName(const std::string &name)
{
    if (name == "Baseline" || name == "baseline")
        return baselineDesign();
    if (name == "CDXBar")
        return cdxbarDesign(false, false);
    if (name == "CDXBar+2xNoC1")
        return cdxbarDesign(true, false);
    if (name == "CDXBar+2xNoC")
        return cdxbarDesign(true, true);

    std::string rest = name;
    bool boost = false;
    const std::string boost_sfx = "+Boost";
    if (rest.size() > boost_sfx.size() &&
        rest.compare(rest.size() - boost_sfx.size(), boost_sfx.size(),
                     boost_sfx) == 0) {
        boost = true;
        rest.resize(rest.size() - boost_sfx.size());
    }

    auto parse_u32 = [&](const std::string &digits) -> std::uint32_t {
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos)
            fatal("bad design name '%s'", name.c_str());
        return static_cast<std::uint32_t>(std::stoul(digits));
    };

    if (rest.rfind("Pr", 0) == 0) {
        if (boost)
            fatal("design '%s': Boost applies to clustered shared "
                  "designs", name.c_str());
        return privateDcl1(parse_u32(rest.substr(2)));
    }
    if (rest.rfind("Sh", 0) == 0) {
        const auto plus = rest.find("+C");
        if (plus == std::string::npos) {
            if (boost)
                fatal("design '%s': Boost needs a cluster count",
                      name.c_str());
            return sharedDcl1(parse_u32(rest.substr(2)));
        }
        const std::uint32_t y = parse_u32(rest.substr(2, plus - 2));
        const std::uint32_t z = parse_u32(rest.substr(plus + 2));
        return clusteredDcl1(y, z, boost);
    }
    fatal("unknown design '%s'", name.c_str());
}

} // namespace dcl1::core
