/**
 * @file
 * GDDR5-like memory channel with banked timing and FR-FCFS scheduling.
 *
 * Timing is expressed directly in core cycles (the 924 MHz memory clock
 * of Table II is folded into the constants: one memory cycle is about
 * 1.515 core cycles at 1400 MHz), which keeps the whole simulator on a
 * single clock base. Each channel has a bounded request queue, N banks
 * with open-row state, and a shared data bus that serializes bursts.
 *
 * A request's bank and row are decoded once, when it is queued. The
 * channel also keeps how many queued requests each bank holds and the
 * earliest cycle one of those banks is ready: before that cycle the
 * FR-FCFS scan could pick nothing, so a tick costs O(1).
 */

#ifndef DCL1_MEM_DRAM_HH
#define DCL1_MEM_DRAM_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/request.hh"
#include "stats/stats.hh"

namespace dcl1::mem
{

/** Timing/geometry parameters of one channel (core-cycle units). */
struct DramParams
{
    std::string name = "dram";
    std::uint32_t numBanks = 16;
    std::uint32_t queueCap = 64;
    std::uint32_t rowBytes = 2048;      ///< bytes per row per bank
    std::uint32_t burstCycles = 6;      ///< data-bus occupancy per line
    std::uint32_t tRcd = 18;            ///< activate -> column
    std::uint32_t tRp = 18;             ///< precharge
    std::uint32_t tCl = 18;             ///< column -> first data

    /**
     * Global interleaving context, used to form channel-local row
     * addresses: the channel owns every numChannels-th chunk of
     * chunkBytes, and rowBytes of *owned* data form one DRAM row (the
     * usual GPU memory-controller packing, which preserves row-buffer
     * locality under fine-grained channel interleaving).
     */
    std::uint32_t chunkBytes = defaultChunkBytes;
    std::uint32_t numChannels = 16;
};

/** One memory channel. */
class DramChannel
{
  public:
    explicit DramChannel(const DramParams &params);

    /** Is there room in the request queue? */
    bool canAccept() const { return queue_.size() < params_.queueCap; }

    /** Enqueue a request (read fetch / write / atomic). */
    void push(MemRequestPtr req, Cycle now);

    /** Advance one core cycle: schedule at most one request. */
    void tick(Cycle now);

    /** Pop a completed read/atomic reply ready at @p now. */
    std::optional<MemRequestPtr> takeCompleted(Cycle now);

    /** Any queued or in-flight work? */
    bool busy() const { return !queue_.empty() || !inService_.empty(); }

    const DramParams &params() const { return params_; }

    /// @name Statistics
    /// @{
    stats::StatGroup &statGroup() { return statGroup_; }
    std::uint64_t reads() const { return reads_.value(); }
    std::uint64_t writes() const { return writes_.value(); }
    std::uint64_t rowHits() const { return rowHits_.value(); }
    std::uint64_t rowMisses() const { return rowMisses_.value(); }
    std::size_t queueSize() const { return queue_.size(); }
    std::size_t inServiceSize() const { return inService_.size(); }
    /// @}

  private:
    struct Bank
    {
        std::uint64_t openRow = ~0ull;
        Cycle readyAt = 0;
        std::uint32_t queued = 0; ///< entries of queue_ for this bank
    };

    /** A queued request with its bank and row decoded at push. */
    struct Queued
    {
        MemRequestPtr req;
        std::uint32_t bank;
        std::uint64_t row;
    };

    std::uint64_t localRow(Addr addr) const;
    /** Recompute wakeAt_ from the banks' queued counts. */
    void rearm();

    DramParams params_;
    std::vector<Bank> banks_;
    std::deque<Queued> queue_;
    /** Earliest readyAt of a bank with a queued request; cycleNever
     *  while the queue is empty. No tick before it can issue. */
    Cycle wakeAt_ = cycleNever;
    /** (completionCycle, request) in issue order, which is completion
     *  order: each burst starts after the previous one ends. */
    std::deque<std::pair<Cycle, MemRequestPtr>> inService_;
    Cycle busFreeAt_ = 0;
    Cycle lastTick_ = 0; ///< monotonic-clock check (DCL1_CHECK)

    stats::StatGroup statGroup_;
    stats::Scalar reads_;
    stats::Scalar writes_;
    stats::Scalar rowHits_;
    stats::Scalar rowMisses_;
    stats::Scalar busBusy_;
};

} // namespace dcl1::mem

#endif // DCL1_MEM_DRAM_HH
