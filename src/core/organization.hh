/**
 * @file
 * DC-L1 organization: which DC-L1 node serves a given (core, address).
 *
 * The machine's Y nodes are grouped into Z clusters of M = Y/Z nodes;
 * each cluster is accessed by numCores/Z cores. Within a cluster the
 * home node is selected by the "home bits" of the physical address —
 * here the 256 B-chunk index modulo M, the same interleave used for
 * the L2 slices, so each DC-L1 talks to exactly numSlices/M slices
 * (enabling the paper's partitioned NoC#2 crossbars).
 *
 *   Z == Y -> private aggregated design (PrY): M = 1, no home bits.
 *   Z == 1 -> fully shared design (ShY).
 */

#ifndef DCL1_CORE_ORGANIZATION_HH
#define DCL1_CORE_ORGANIZATION_HH

#include "common/log.hh"
#include "common/types.hh"
#include "core/design.hh"
#include "core/system_config.hh"
#include "mem/address_map.hh"

namespace dcl1::core
{

/** See file comment. */
class Organization
{
  public:
    Organization(const DesignConfig &design, const SystemConfig &sys)
        : numNodes_(design.numNodes),
          clusters_(design.clusters),
          nodesPerCluster_(design.nodesPerCluster()),
          coresPerCluster_(design.coresPerCluster(sys)),
          chunkBytes_(sys.chunkBytes),
          partitionedNoc2_(design.partitionedNoc2(sys))
    {
        design.validate(sys);
    }

    std::uint32_t numNodes() const { return numNodes_; }
    std::uint32_t clusters() const { return clusters_; }
    std::uint32_t nodesPerCluster() const { return nodesPerCluster_; }
    std::uint32_t coresPerCluster() const { return coresPerCluster_; }

    /** Cluster of a core. */
    std::uint32_t
    clusterOfCore(CoreId core) const
    {
        return core / coresPerCluster_;
    }

    /** Cluster of a node. */
    std::uint32_t
    clusterOfNode(NodeId node) const
    {
        return node / nodesPerCluster_;
    }

    /** Home index within a cluster (the "home bits"). */
    std::uint32_t
    homeWithinCluster(Addr addr) const
    {
        return static_cast<std::uint32_t>(
            (addr / chunkBytes_) % nodesPerCluster_);
    }

    /** The DC-L1 node serving @p addr for @p core. */
    NodeId
    homeNode(CoreId core, Addr addr) const
    {
        return clusterOfCore(core) * nodesPerCluster_ +
               homeWithinCluster(addr);
    }

    /** See DesignConfig::partitionedNoc2(). */
    bool partitionedNoc2() const { return partitionedNoc2_; }

    /**
     * Sanity: the L2 slice of @p addr must belong to the home's slice
     * group when NoC#2 is partitioned.
     */
    bool
    sliceMatchesHome(Addr addr, SliceId slice) const
    {
        if (!partitionedNoc2())
            return true;
        return slice % nodesPerCluster_ == homeWithinCluster(addr);
    }

  private:
    std::uint32_t numNodes_;
    std::uint32_t clusters_;
    std::uint32_t nodesPerCluster_;
    std::uint32_t coresPerCluster_;
    std::uint32_t chunkBytes_;
    bool partitionedNoc2_;
};

} // namespace dcl1::core

#endif // DCL1_CORE_ORGANIZATION_HH
