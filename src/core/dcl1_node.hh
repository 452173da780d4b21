/**
 * @file
 * The DC-L1 node (paper Fig. 3): the decoupled L1 cache plus four
 * queues —
 *   Q1: requests arriving from the cores (via NoC#1),
 *   Q2: replies departing to the cores (via NoC#1),
 *   Q3: requests departing to L2/memory (via NoC#2),
 *   Q4: replies arriving from L2/memory (via NoC#2).
 *
 * L1 read/write requests access the DC-L1 cache (write-evict,
 * no-write-allocate); non-L1 traffic (instruction/texture/constant
 * misses) and atomics bypass the cache, moving Q1->Q3 and Q4->Q2.
 * Read replies to cores carry only the requested bytes, not the full
 * line.
 */

#ifndef DCL1_CORE_DCL1_NODE_HH
#define DCL1_CORE_DCL1_NODE_HH

#include <memory>
#include <optional>

#include "common/types.hh"
#include "mem/cache_bank.hh"
#include "mem/queues.hh"
#include "mem/request.hh"
#include "stats/stats.hh"

namespace dcl1::core
{

/** See file comment. */
class DcL1Node
{
  public:
    /**
     * @param cache_params DC-L1 cache geometry/timing
     * @param node_id this node's id (also the tracker cache id)
     * @param queue_cap Q1..Q4 depth (paper: 4 entries)
     * @param listener replication directory (may be null)
     */
    DcL1Node(const mem::CacheBankParams &cache_params, NodeId node_id,
             std::uint32_t queue_cap,
             mem::CacheListener *listener = nullptr,
             bool full_line_replies = false);

    /// @name Core-facing side (NoC#1)
    /// @{
    bool canAcceptFromCore() const { return q1_.canPush(); }
    void pushFromCore(mem::MemRequestPtr req);
    std::optional<mem::MemRequestPtr> takeToCore() { return q2_.tryPop(); }
    bool hasToCore() const { return !q2_.empty(); }
    /// @}

    /// @name Memory-facing side (NoC#2)
    /// @{
    bool canAcceptFromMem() const { return q4_.canPush(); }
    void pushFromMem(mem::MemRequestPtr reply);
    std::optional<mem::MemRequestPtr> takeToMem() { return q3_.tryPop(); }
    bool hasToMem() const { return !q3_.empty(); }
    /// @}

    /** Advance one core cycle. */
    void tick(Cycle now);

    /** In-flight work (for drain checks)? */
    bool busy() const;

    mem::CacheBank &cache() { return *cache_; }
    const mem::CacheBank &cache() const { return *cache_; }

    std::size_t q1Size() const { return q1_.size(); }
    std::size_t q2Size() const { return q2_.size(); }
    std::size_t q3Size() const { return q3_.size(); }
    std::size_t q4Size() const { return q4_.size(); }

    stats::StatGroup &statGroup() { return statGroup_; }
    std::uint64_t bypassRequests() const { return bypasses_.value(); }

  private:
    NodeId nodeId_;
    bool fullLineReplies_;
    std::unique_ptr<mem::CacheBank> cache_;

    mem::BoundedQueue<mem::MemRequestPtr> q1_; ///< from cores
    mem::BoundedQueue<mem::MemRequestPtr> q2_; ///< to cores
    mem::BoundedQueue<mem::MemRequestPtr> q3_; ///< to L2/memory
    mem::BoundedQueue<mem::MemRequestPtr> q4_; ///< from L2/memory

    stats::StatGroup statGroup_;
    stats::Scalar bypasses_;
    stats::Scalar q1Stalls_;
    Cycle lastTick_ = 0; ///< monotonic-clock check (DCL1_CHECK)
};

} // namespace dcl1::core

#endif // DCL1_CORE_DCL1_NODE_HH
