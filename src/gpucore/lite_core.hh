/**
 * @file
 * Lite GPU core (compute unit) model.
 *
 * The core holds up to workload::kMaxWarpsPerCore (64) resident
 * wavefronts. Each cycle it issues one instruction from a ready
 * wavefront (round-robin): arithmetic instructions retire immediately,
 * memory instructions are coalesced into line requests that drain
 * through the LSU toward either the core's private L1 (baseline) or
 * the outbound queue toward NoC#1 (DC-L1 designs, the paper's "Lite
 * Core" with no L1/MSHR). A wavefront with outstanding read-class
 * requests is descheduled until all its replies arrive — this is the
 * latency-hiding mechanism whose effectiveness scales with occupancy
 * and arithmetic intensity.
 *
 * A stalled core (full LSU or store buffer, L1 refusing the LSU head)
 * retries the same refused work every cycle. Once a tick has changed
 * nothing and every ready warp has been refused since the last change,
 * later ticks repeat that tick's counters in O(1) until an event that
 * can change the outcome arrives (see tick()).
 */

#ifndef DCL1_GPUCORE_LITE_CORE_HH
#define DCL1_GPUCORE_LITE_CORE_HH

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "mem/cache_bank.hh"
#include "mem/queues.hh"
#include "mem/request.hh"
#include "stats/latency_attr.hh"
#include "stats/stats.hh"
#include "workload/workload.hh"

namespace dcl1::gpucore
{

/** Warp scheduling policy. */
enum class WarpSched : std::uint8_t
{
    LooseRoundRobin, ///< rotate over ready warps (GPGPU-Sim "lrr")
    GreedyThenOldest, ///< stick to one warp until it stalls ("gto")
};

/** Static configuration of a LiteCore. */
struct LiteCoreParams
{
    CoreId id = 0;
    WarpSched sched = WarpSched::LooseRoundRobin;
    std::uint32_t issueWidth = 1;
    std::uint32_t schedScanLimit = 8;  ///< warps examined per cycle
    std::uint32_t lsuQueueCap = 16;
    std::uint32_t outQueueCap = 8;
    std::uint32_t maxOutstandingWrites = 64;

    /** Baseline private-L1 mode; empty for DC-L1 "lite" mode. */
    bool hasL1 = false;
    mem::CacheBankParams l1;
};

/** See file comment. */
class LiteCore
{
  public:
    /**
     * @param params core configuration
     * @param source instruction stream generator (not owned; null
     *        builds an idle core that issues nothing until
     *        bindSource() attaches a stream — the serving layer's
     *        starting state)
     * @param listener replication directory for the private L1 (may be
     *        null; only used when hasL1)
     */
    LiteCore(const LiteCoreParams &params, workload::TraceSource *source,
             mem::CacheListener *listener = nullptr);

    /**
     * Advance one core cycle. A tick that cannot change anything
     * replays the last tick instead: the last tick issued, moved and
     * retired nothing, every ready warp holds a stashed instruction
     * refused at the current LSU occupancy and store count, and no
     * reply, outbound pop, issue gate or binding change has arrived
     * since. The replay ends when the cycle reaches the L1's oldest
     * completion.
     */
    void tick(Cycle now);

    /**
     * Did the last tick issue, move and retire nothing? Read by the
     * profiler's stalled-core census.
     */
    bool stalled() const { return stalled_; }

    /// @name Mid-run workload binding (serving layer)
    /// @{
    /**
     * Attach a new instruction stream to an idle core: warp contexts
     * and the ready list are rebuilt from the new stream's
     * warpsPerCore(), and the per-binding instruction counter restarts
     * at zero. panic()s if the core still has in-flight work.
     */
    void bindSource(workload::TraceSource *source);

    /**
     * Stop fetching new instructions from the bound stream; in-flight
     * memory requests keep draining. The core reports !busy() once the
     * last reply lands, at which point unbindSource() is legal.
     */
    void closeSource();

    /** Detach the stream from a drained core (panic()s if busy). */
    void unbindSource();

    /**
     * Instructions issued since the last bindSource() (or since
     * construction). Unlike the instructions stat this is never reset
     * by resetStats() — it is the job-completion odometer.
     */
    std::uint64_t sourceInstructions() const
    {
        return bindingInstructions_;
    }
    /// @}

    /** Gate instruction issue (used by GpuSystem::drain). */
    void
    setIssueEnabled(bool enabled)
    {
        issueEnabled_ = enabled;
        endReplay();
    }

    /**
     * Attach the system's latency-attribution sampler (null to
     * detach). The core is where requests are born and retire, so it
     * owns both attribution endpoints.
     */
    void setTelemetry(stats::LatencyAttribution *tlm) { tlm_ = tlm; }

    /// @name NoC-facing side
    /// @{
    /** Pop a request bound for the interconnect. */
    std::optional<mem::MemRequestPtr> takeOutbound();
    bool hasOutbound() const { return !outbound_.empty(); }
    /** Deliver a reply from the interconnect. */
    void deliverReply(mem::MemRequestPtr reply, Cycle now);
    /// @}

    /** Outstanding work (for drain checks)? */
    bool busy() const;

    CoreId id() const { return params_.id; }
    mem::CacheBank *l1() { return l1_.get(); }
    const mem::CacheBank *l1() const { return l1_.get(); }

    /// @name Statistics
    /// @{
    stats::StatGroup &statGroup() { return statGroup_; }
    std::uint64_t instructions() const { return instructions_.value(); }
    std::uint64_t memInstructions() const { return memInstrs_.value(); }
    /** Mean core->reply round-trip latency of read-class requests. */
    double avgReadLatency() const;
    std::uint64_t readLatencySum() const { return readLatencySum_.value(); }
    std::uint64_t readsCompleted() const { return readsCompleted_.value(); }
    /** Mean cycles from coalescer to first (DC-)L1 service. */
    double
    avgPreServiceLatency() const
    {
        const auto n = readsCompleted_.value();
        return n ? double(preServiceSum_.value()) / double(n) : 0.0;
    }
    /// @}

  private:
    /// @name Tick stages; each returns whether it changed anything.
    /// @{
    bool issue(Cycle now);
    bool drainLsu(Cycle now);
    bool pumpL1(Cycle now);
    /// @}
    bool issueGated() const
    {
        return !issueEnabled_ || !source_ || sourceClosed_;
    }
    /** May tick(@p now) replay the last tick? */
    bool canReplay(Cycle now) const;
    /** Something a tick reads changed: the next tick runs in full. */
    void endReplay();
    /** Apply the ready-ring rotation that replayed ticks deferred. */
    void settleRotation();
    /** Account a completed request: write ACK, or read reply. */
    void retire(mem::MemRequest &req, Cycle now);
    void wakeWarp(WarpId warp);

    /**
     * Ready warps in scheduling order: a fixed ring of kMaxWarpsPerCore
     * ids, so scheduling never allocates. Each warp is in it at most once.
     */
    class WarpRing
    {
      public:
        bool empty() const { return size_ == 0; }
        std::uint32_t size() const { return size_; }
        void clear() { head_ = size_ = 0; }

        WarpId
        popFront()
        {
            const WarpId w = slots_[head_];
            head_ = wrap(head_ + 1);
            --size_;
            return w;
        }

        void
        pushBack(WarpId w)
        {
            slots_[wrap(head_ + size_)] = w;
            ++size_;
        }

        void
        pushFront(WarpId w)
        {
            head_ = wrap(head_ + kCap - 1);
            slots_[head_] = w;
            ++size_;
        }

        /** Insert @p w before the first warp with a higher id. */
        void insertOrdered(WarpId w);

        /** Move the first @p k warps (mod size) to the back, in order. */
        void rotate(std::uint64_t k);

      private:
        static constexpr std::uint32_t kCap = workload::kMaxWarpsPerCore;
        static std::uint32_t wrap(std::uint32_t i) { return i % kCap; }
        WarpId &at(std::uint32_t pos) { return slots_[wrap(head_ + pos)]; }

        std::array<WarpId, kCap> slots_{};
        std::uint32_t head_ = 0;
        std::uint32_t size_ = 0;
    };

    struct WarpCtx
    {
        std::uint32_t pendingReads = 0;
        bool hasStashedInstr = false;
        workload::WarpInstr stashed;
    };

    LiteCoreParams params_;
    workload::TraceSource *source_;

    std::uint32_t numWarps_;
    std::vector<WarpCtx> warps_;
    WarpRing readyWarps_;

    mem::BoundedQueue<mem::MemRequestPtr> lsu_;
    mem::BoundedQueue<mem::MemRequestPtr> outbound_;
    std::unique_ptr<mem::CacheBank> l1_;

    std::uint32_t outstandingWrites_ = 0;
    std::uint64_t outstandingReads_ = 0;
    bool issueEnabled_ = true;
    bool sourceClosed_ = false;
    std::uint64_t bindingInstructions_ = 0;
    stats::LatencyAttribution *tlm_ = nullptr;

    /// @name Stalled-tick replay
    /// @{
    bool stalled_ = false;  ///< the last tick changed nothing
    bool armed_ = false;    ///< the next tick may replay the last one
    std::uint64_t quietScans_ = 0; ///< warps refused since a change
    std::uint32_t lastStalls_ = 0; ///< lsu_stalls the last tick added
    bool lastNoWarp_ = false;      ///< the last tick found no ready warp
    bool headBlocked_ = false; ///< the L1 pre-check refused the LSU head
    std::uint64_t unrotated_ = 0; ///< rotation owed by replayed ticks
    /// @}

    stats::StatGroup statGroup_;
    stats::Scalar instructions_;
    stats::Scalar memInstrs_;
    stats::Scalar arithInstrs_;
    stats::Scalar lsuStalls_;
    stats::Scalar noWarpCycles_;
    stats::Scalar readLatencySum_;
    stats::Scalar readsCompleted_;
    stats::Scalar preServiceSum_;
};

} // namespace dcl1::gpucore

#endif // DCL1_GPUCORE_LITE_CORE_HH
