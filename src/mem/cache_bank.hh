/**
 * @file
 * A timed cache bank used for the private L1s, the DC-L1 caches, and the
 * L2 slices.
 *
 * The bank has a single tag/data port (one access per core cycle), a
 * fixed pipelined access latency, an MSHR file with cross-requester
 * merging, and a bounded downstream (miss/write-through) queue whose
 * fullness exerts backpressure on new accesses.
 *
 * A structural pre-check reads the line's tag, its MSHR entry (a full
 * target list), MSHR fullness and miss-queue room before an access
 * commits. An access it refuses changes nothing but the `blocked`
 * count: the port stays free and the request is left untouched with
 * the caller, which retries it later.
 *
 * Two write policies are supported, matching the paper's platform:
 *  - WriteEvict (L1/DC-L1): a write hit evicts the line; writes never
 *    allocate and are always forwarded downstream (write-through); the
 *    write completes when the downstream ACK is passed back via fill().
 *  - WriteBack (L2): write hits mark dirty and complete locally; write
 *    misses allocate-without-fetch (write-validate) and complete
 *    locally; dirty victims emit fire-and-forget writeback requests.
 */

#ifndef DCL1_MEM_CACHE_BANK_HH
#define DCL1_MEM_CACHE_BANK_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "common/types.hh"
#include "mem/mshr.hh"
#include "mem/queues.hh"
#include "mem/request.hh"
#include "mem/tag_array.hh"
#include "stats/latency_attr.hh"
#include "stats/stats.hh"

namespace dcl1::mem
{

/** Install/evict notifications, used by the replication directory. */
class CacheListener
{
  public:
    virtual ~CacheListener() = default;
    /** @p cache_id identifies the notifying cache. */
    virtual void onInstall(std::uint32_t cache_id, LineAddr line) = 0;
    virtual void onEvict(std::uint32_t cache_id, LineAddr line) = 0;
    /** A demand miss occurred (before the fetch is sent). */
    virtual void onMiss(std::uint32_t cache_id, LineAddr line) = 0;
};

/** Write handling policy. */
enum class WritePolicy : std::uint8_t { WriteEvict, WriteBack };

/** Static configuration of a CacheBank. */
struct CacheBankParams
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 16 * 1024;
    std::uint32_t assoc = 4;
    std::uint32_t lineBytes = defaultLineBytes;
    std::uint32_t latency = 28;          ///< hit latency, core cycles
    std::uint32_t mshrs = 32;
    std::uint32_t targetsPerMshr = 8;
    std::uint32_t downstreamCap = 8;     ///< miss-queue depth
    WritePolicy policy = WritePolicy::WriteEvict;
    ReplPolicy repl = ReplPolicy::Lru;   ///< victim selection
    bool perfect = false;                ///< 100 % hit rate (reads)

    /** Latency-attribution segment this bank's time is charged to
     *  (Cache for L1/DC-L1 banks, L2 for the L2 slices). */
    stats::Seg tlmSeg = stats::Seg::Cache;

    std::uint32_t
    numSets() const
    {
        return sizeBytes / (lineBytes * assoc);
    }
};

/** Outcome of CacheBank::access. */
enum class AccessOutcome : std::uint8_t
{
    Hit,     ///< completes internally after the hit latency
    Miss,    ///< fetch sent downstream (or merged into an MSHR)
    Blocked, ///< structural hazard; caller retries later
};

/** See file comment. */
class CacheBank
{
  public:
    CacheBank(const CacheBankParams &params, std::uint32_t cache_id = 0,
              CacheListener *listener = nullptr);

    /**
     * Can the bank accept an access this cycle? False when the port was
     * already used at @p now or when the completion backlog indicates a
     * stalled pipeline.
     */
    bool canAccept(Cycle now) const;

    /**
     * Perform an access. On Hit/Miss ownership of @p req moves into the
     * bank; on Blocked the request is left untouched with the caller.
     */
    AccessOutcome access(MemRequestPtr &req, Cycle now);

    /** Pop a completed request (hit or filled miss) ready at @p now. */
    std::optional<MemRequestPtr> takeCompleted(Cycle now);

    /** Ready cycle of the oldest completion (cycleNever if none). */
    Cycle
    nextCompletion() const
    {
        return completed_.empty() ? cycleNever : completed_.front().first;
    }

    /** Pop a request bound for the next hierarchy level. */
    std::optional<MemRequestPtr> takeDownstream();

    /** True if a downstream request is waiting. */
    bool hasDownstream() const;

    /**
     * Deliver a downstream reply: a read-fetch fill or a write ACK. The
     * primary and all merged targets become completed replies.
     */
    void fill(MemRequestPtr reply, Cycle now);

    /** Are there in-flight operations (for drain checks)? */
    bool busy() const;

    const CacheBankParams &params() const { return params_; }
    std::uint32_t cacheId() const { return cacheId_; }
    /** Read-only: the tags change only through the bank (see epoch_). */
    const TagArray &tags() const { return tags_; }

    /// @name Statistics
    /// @{
    stats::StatGroup &statGroup() { return statGroup_; }
    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t readMisses() const { return readMisses_.value(); }
    double
    missRate() const
    {
        const auto a = accesses_.value();
        return a ? double(misses_.value()) / double(a) : 0.0;
    }
    std::uint64_t mshrMerges() const { return mshrMerges_.value(); }
    std::uint64_t blockedEvents() const { return blocked_.value(); }
    /**
     * Count one access refused by the structural pre-check without
     * making it: a caller that knows nothing the pre-check reads has
     * changed since its last refusal repeats only that refusal's stat.
     */
    void countBlocked() { ++blocked_; }
    std::uint64_t writebacks() const { return writebacks_.value(); }
    std::size_t mshrInUse() const { return mshr_.inUse(); }
    /// @}

  private:
    /** Last access the structural pre-check refused; see epoch_. */
    struct Refusal
    {
        LineAddr line = 0;
        bool write = false;
        std::uint64_t epoch = 0; ///< below every epoch_ until set
    };

    bool refusedByPreCheck(LineAddr line, bool write) const;
    void scheduleCompletion(MemRequestPtr req, Cycle ready);
    void installLine(LineAddr line, bool dirty);

    CacheBankParams params_;
    std::uint32_t cacheId_;
    CacheListener *listener_;

    TagArray tags_;
    Mshr mshr_;

    /** (readyCycle, request) in FIFO order (latency is constant). */
    std::deque<std::pair<Cycle, MemRequestPtr>> completed_;

    BoundedQueue<MemRequestPtr> downstream_;

    /** Writebacks waiting for downstream space (WriteBack policy). */
    std::deque<MemRequestPtr> pendingWritebacks_;

    Cycle lastPortCycle_ = cycleNever;

    /**
     * What the pre-check reads (tags, MSHR entries, miss-queue room)
     * changes only through an access that takes the port, fill() or
     * takeDownstream(), and each of them bumps the epoch. A retry of
     * refusal_'s line and kind in the same epoch is refused without
     * probing again.
     */
    std::uint64_t epoch_ = 1;
    Refusal refusal_;

    stats::StatGroup statGroup_;
    stats::Scalar accesses_;
    stats::Scalar hits_;
    stats::Scalar misses_;
    stats::Scalar readAccesses_;
    stats::Scalar readMisses_;
    stats::Scalar writeAccesses_;
    stats::Scalar writeHitEvicts_;
    stats::Scalar mshrMerges_;
    stats::Scalar blocked_;
    stats::Scalar writebacks_;
};

} // namespace dcl1::mem

#endif // DCL1_MEM_CACHE_BANK_HH
