/**
 * @file
 * One address-sliced L2 bank: NoC-facing queues around a write-back
 * CacheBank, connected to its memory channel.
 */

#ifndef DCL1_MEM_L2_SLICE_HH
#define DCL1_MEM_L2_SLICE_HH

#include <optional>

#include "common/types.hh"
#include "mem/cache_bank.hh"
#include "mem/dram.hh"
#include "mem/queues.hh"
#include "mem/request.hh"

namespace dcl1::mem
{

/** See file comment. */
class L2Slice
{
  public:
    /**
     * @param params bank geometry/timing (policy is forced to WriteBack)
     * @param slice_id this slice's id
     * @param channel backing memory channel (not owned)
     */
    L2Slice(CacheBankParams params, SliceId slice_id, DramChannel *channel);

    /** Room in the input queue (NoC ejection side)? */
    bool canAcceptRequest() const { return input_.canPush(); }

    /** Deliver a request from the NoC at cycle @p now. */
    void pushRequest(MemRequestPtr req, Cycle now);

    /**
     * Advance one core cycle: serve the input queue, drain bank misses
     * to DRAM, and collect DRAM completions.
     */
    void tick(Cycle now);

    /** Pop a reply bound for the NoC. */
    std::optional<MemRequestPtr> takeReply();

    /**
     * Deliver a completed DRAM access for this slice (the owner routes
     * channel completions here via MemRequest::slice).
     */
    void onDramReply(MemRequestPtr reply, Cycle now);

    /** In-flight work (for drain checks)? */
    bool busy() const;

    CacheBank &bank() { return bank_; }
    const CacheBank &bank() const { return bank_; }

  private:
    SliceId sliceId_;
    CacheBank bank_;
    DramChannel *channel_;
    BoundedQueue<MemRequestPtr> input_;
    BoundedQueue<MemRequestPtr> replies_;
    std::uint64_t dramInFlight_ = 0;
    Cycle lastTick_ = 0; ///< monotonic-clock check (DCL1_CHECK)
};

} // namespace dcl1::mem

#endif // DCL1_MEM_L2_SLICE_HH
