/**
 * @file
 * Cache-hierarchy design points evaluated in the paper.
 *
 * A DesignConfig describes how the L1 level is organized:
 *  - PrivateBaseline: the conventional per-core private L1 (plus the
 *    CdXbar variant that swaps the monolithic crossbar for Zhao et
 *    al.'s hierarchical one, Fig. 19a).
 *  - DcL1: Y decoupled L1 nodes grouped into Z clusters. Each cluster
 *    of numCores/Z cores shares its Y/Z nodes with home-bit
 *    interleaving; Z == Y degenerates to the private aggregated design
 *    (PrY) and Z == 1 to the fully shared design (ShY).
 *
 * Presets reproduce the paper's named designs: Pr80/Pr40/Pr20/Pr10,
 * Sh40, Sh40+CZ, Sh40+C10+Boost, and the sensitivity variants.
 */

#ifndef DCL1_CORE_DESIGN_HH
#define DCL1_CORE_DESIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "noc/net.hh"

namespace dcl1::core
{

/** Top-level topology selector. */
enum class Topology : std::uint8_t
{
    PrivateBaseline, ///< per-core L1s + monolithic crossbar
    CdXbar,          ///< per-core L1s + hierarchical two-stage crossbar
    DcL1,            ///< decoupled L1 nodes (the paper's proposal)
};

/** See file comment. */
struct DesignConfig
{
    std::string name = "Baseline";
    Topology topology = Topology::PrivateBaseline;

    /// @name DC-L1 organization (topology == DcL1)
    /// @{
    std::uint32_t numNodes = 40; ///< Y
    std::uint32_t clusters = 10; ///< Z (1 = fully shared, Y = private)
    /// @}

    /** Level-1 (core-side) crossbar clock ratio: DC-L1's NoC#1 and
     *  CDXBar's local stages (doubled by the Boost variants). */
    double noc1ClockRatio = kNocClockRatio;
    /** Level-2 (memory-side) crossbar clock ratio: NoC#2, the
     *  baseline crossbar and CDXBar's global stage (kept at baseline
     *  in the paper). */
    double noc2ClockRatio = kNocClockRatio;

    /// @name Study knobs
    /// @{
    double l1CapacityScale = 1.0; ///< 16.0 for Fig. 1, 2.0 for boosted
    bool perfectL1 = false;       ///< 100 % L1/DC-L1 hit rate (Fig. 4c)
    std::int32_t l1LatencyOverride = -1; ///< Fig. 19b sweep; -1 = auto
    bool distributedCta = false;  ///< distributed CTA scheduler [28]
    /**
     * Ablation of the paper's Sec. III choice: when true, DC-L1 read
     * replies to cores carry the whole 128 B line instead of only the
     * requested bytes, quadrupling NoC#1 reply serialization.
     */
    bool fullLineReplies = false;
    /// @}

    /** Cores per DC-L1 node (aggregation factor). */
    std::uint32_t
    coresPerNode(const SystemConfig &sys) const
    {
        return sys.numCores / numNodes;
    }

    /** Nodes per cluster (M). */
    std::uint32_t nodesPerCluster() const { return numNodes / clusters; }

    /** Cores per cluster (N). */
    std::uint32_t
    coresPerCluster(const SystemConfig &sys) const
    {
        return sys.numCores / clusters;
    }

    /**
     * Is NoC#2 partitioned into nodesPerCluster() independent
     * crossbars? That needs a DC-L1 design with several homes per
     * cluster whose count divides the slice count; otherwise NoC#2 is
     * one full crossbar (the paper's Sh40 case).
     */
    bool partitionedNoc2(const SystemConfig &sys) const;

    /** Validate against a platform; fatal() on inconsistency. */
    void validate(const SystemConfig &sys) const;

    /**
     * DC-L1 hit latency: the paper reports a 7 % latency increase per
     * capacity doubling (28 -> 30 cycles for the 2x DC-L1s of Sh40).
     */
    std::uint32_t l1LatencyFor(const SystemConfig &sys) const;

    /** DC-L1 (or L1) capacity in bytes per node/core. */
    std::uint32_t l1SizeFor(const SystemConfig &sys) const;
};

/** One crossbar geometry in a design (for the DSENT-like model). */
struct XbarGeometry
{
    std::uint32_t numInputs = 0;
    std::uint32_t numOutputs = 0;
    std::uint32_t count = 0;     ///< identical instances
    double clockRatio = kNocClockRatio;
    double linkMm = 12.3;        ///< link length (paper: 3.3/12.3 mm)
    std::uint32_t level = 2;     ///< 1 = NoC#1 (core side), 2 = NoC#2
};

/**
 * The interconnect of @p design on @p sys (the design must be valid
 * for the platform), one noc::Net per direction: the request net the
 * cores inject into, the reply net they eject from, then NoC#2's
 * request and reply nets on DC-L1 designs. The L2 slices eject from
 * the second-to-last net and inject into the last, so on single-network
 * designs they share the cores' pair. The one place a topology's
 * crossbars are described.
 */
std::vector<std::unique_ptr<noc::Net>> buildNoc(const DesignConfig &design,
                                                const SystemConfig &sys);

/**
 * The crossbars buildNoc() builds, as the NoC area/power/energy models
 * price them: identical neighbouring crossbars of one net form one
 * entry, and the link length follows the NoC level.
 */
std::vector<XbarGeometry> crossbarInventory(const DesignConfig &design,
                                            const SystemConfig &sys);

/// @name Design presets (paper names)
/// @{
DesignConfig baselineDesign();
DesignConfig privateDcl1(std::uint32_t num_nodes); ///< PrY
DesignConfig sharedDcl1(std::uint32_t num_nodes);  ///< ShY
DesignConfig clusteredDcl1(std::uint32_t num_nodes, std::uint32_t clusters,
                           bool boost = false); ///< ShY+CZ(+Boost)
DesignConfig cdxbarDesign(bool boost_local, bool boost_global);
/// @}

/// @name Preset modifiers
/// @{
DesignConfig withPerfectL1(DesignConfig d);
DesignConfig withCapacityScale(DesignConfig d, double scale);
DesignConfig withL1Latency(DesignConfig d, std::int32_t latency);
DesignConfig withDistributedCta(DesignConfig d);
DesignConfig withFullLineReplies(DesignConfig d);
/// @}

/**
 * Parse a design by its paper name: "Baseline", "PrY", "ShY",
 * "ShY+CZ", optional "+Boost", "CDXBar", "CDXBar+2xNoC1",
 * "CDXBar+2xNoC". fatal() on anything else.
 */
DesignConfig designByName(const std::string &name);

} // namespace dcl1::core

#endif // DCL1_CORE_DESIGN_HH
