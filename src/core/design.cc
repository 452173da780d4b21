#include "core/design.hh"

#include <cmath>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace dcl1::core
{

std::string
SystemConfig::summary() const
{
    return csprintf(
        "%u cores, %u L2 slices, %u channels, %uB lines, L1 %uKB/%u-way "
        "lat %u, L2 %uKB/%u-way lat %u, NoC ratio %.2f",
        numCores, numL2Slices, numChannels, lineBytes, l1SizeBytes / 1024,
        l1Assoc, l1Latency, l2SliceSizeBytes / 1024, l2Assoc, l2Latency,
        nocClockRatio);
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

    if (nocClockRatio <= 0.0)
        fatal("platform: NoC clock ratio %.3f must be positive",
              nocClockRatio);
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
        if (topology == Topology::CdXbar) {
            if (cdxClusters == 0 || cdxTrunksPerCluster == 0)
                fatal("design %s: CdXbar clusters/trunks must be "
                      "nonzero (%u/%u) — the hierarchical crossbar "
                      "would be zero-width",
                      name.c_str(), cdxClusters, cdxTrunksPerCluster);
            if (sys.numCores % cdxClusters != 0)
                fatal("design %s: %u cores not divisible by %u CdXbar "
                      "clusters", name.c_str(), sys.numCores, cdxClusters);
        }
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

std::vector<XbarGeometry>
crossbarInventory(const DesignConfig &design, const SystemConfig &sys)
{
    std::vector<XbarGeometry> inv;
    constexpr double kShortLinkMm = 3.3;
    constexpr double kLongLinkMm = 12.3;

    switch (design.topology) {
      case Topology::PrivateBaseline:
        // Request + reply monolithic crossbars.
        inv.push_back({sys.numCores, sys.numL2Slices, 1,
                       design.noc2ClockRatio, kLongLinkMm});
        inv.push_back({sys.numL2Slices, sys.numCores, 1,
                       design.noc2ClockRatio, kLongLinkMm});
        return inv;
      case Topology::CdXbar: {
        const std::uint32_t n = sys.numCores / design.cdxClusters;
        const std::uint32_t k = design.cdxTrunksPerCluster;
        const std::uint32_t trunks = design.cdxClusters * k;
        inv.push_back({n, k, design.cdxClusters,
                       design.cdxLocalClockRatio, kShortLinkMm, 1});
        inv.push_back({k, n, design.cdxClusters,
                       design.cdxLocalClockRatio, kShortLinkMm, 1});
        inv.push_back({trunks, sys.numL2Slices, 1,
                       design.cdxGlobalClockRatio, kLongLinkMm});
        inv.push_back({sys.numL2Slices, trunks, 1,
                       design.cdxGlobalClockRatio, kLongLinkMm});
        return inv;
      }
      case Topology::DcL1:
        break;
    }

    const std::uint32_t n = design.coresPerCluster(sys);
    const std::uint32_t m = design.nodesPerCluster();
    const std::uint32_t z = design.clusters;
    const std::uint32_t l = sys.numL2Slices;

    // NoC#1: Z crossbars of N x M (request) and M x N (reply).
    inv.push_back({n, m, z, design.noc1ClockRatio, kShortLinkMm, 1});
    inv.push_back({m, n, z, design.noc1ClockRatio, kShortLinkMm, 1});

    // NoC#2: M partitions of Z x L/M, or one full Y x L crossbar.
    if (design.partitionedNoc2(sys)) {
        inv.push_back({z, l / m, m, design.noc2ClockRatio, kLongLinkMm});
        inv.push_back({l / m, z, m, design.noc2ClockRatio, kLongLinkMm});
    } else {
        inv.push_back({design.numNodes, l, 1, design.noc2ClockRatio,
                       kLongLinkMm});
        inv.push_back({l, design.numNodes, 1, design.noc2ClockRatio,
                       kLongLinkMm});
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
        d.noc1ClockRatio = 1.0;
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
    d.cdxLocalClockRatio = boost_local ? 1.0 : 0.5;
    d.cdxGlobalClockRatio = boost_global ? 1.0 : 0.5;
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
