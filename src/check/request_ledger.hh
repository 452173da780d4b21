/**
 * @file
 * End-to-end request lifecycle auditing.
 *
 * Every MemRequest a core's coalescer injects (and every writeback a
 * cache creates) is registered with the per-thread RequestLedger and
 * then audited as it moves through the machine:
 *
 *     Issued --> InNoc <--> AtCache <--> InMshr
 *                  |           |
 *                  |           v
 *                  |        AtDram
 *                  v           |
 *               Retired <------+
 *
 * Components report coarse stage transitions; the ledger panics on any
 * move the state machine does not allow (double retire, use after
 * retire, re-merge of an already merged request, a reply teleporting
 * from DRAM straight to a core, ...). Destroying a live (un-retired)
 * request while strict-destroy is armed — i.e. during the simulated
 * cycle loop — is a request leak and also panics. After a successful
 * GpuSystem::drain() the audit() entry point verifies that nothing is
 * left in flight anywhere in the machine.
 *
 * Requests with seq 0 (never registered, e.g. unit tests poking a
 * single component) are ignored, so component tests need no setup.
 * All of this compiles away when DCL1_CHECK is off.
 */

#ifndef DCL1_CHECK_REQUEST_LEDGER_HH
#define DCL1_CHECK_REQUEST_LEDGER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "check/check.hh"
#include "common/types.hh"

namespace dcl1::mem
{
struct MemRequest;
} // namespace dcl1::mem

namespace dcl1::check
{

/** Coarse pipeline stage of a tracked request. */
enum class ReqStage : std::uint8_t
{
    Issued,  ///< created; still inside the issuing core (LSU/outbound)
    InNoc,   ///< buffered or in flight inside any crossbar
    AtCache, ///< inside an L1/DC-L1 node or L2 slice (queues or bank)
    InMshr,  ///< held as a merged secondary target inside an MSHR entry
    AtDram,  ///< queued or in service at a memory channel
    Retired, ///< consumed: reply delivered, write ACKed, or WB absorbed
};

/** Human-readable stage name. */
const char *stageName(ReqStage stage);

/** See file comment. */
class RequestLedger
{
  public:
    /**
     * The calling thread's ledger. One instance per thread (a
     * simulation lives entirely on the thread that built it), so
     * concurrent jobs of the execution engine audit independently.
     */
    static RequestLedger &instance();

    /** Master switch; when false every call is a no-op. */
    bool enabled() const { return enabled_; }

    /**
     * When armed, destroying a non-retired tracked request panics.
     * GpuSystem::run arms this for the duration of the cycle loop;
     * teardown of a half-finished simulation is legitimate.
     */
    void setStrictDestroy(bool on) { strictDestroy_ = on; }

    /**
     * Register @p req, assigning its ledger sequence number.
     * @p stage is Issued for core requests and AtCache for writebacks
     * born inside a cache.
     */
    void onCreate(mem::MemRequest &req, Cycle now,
                  ReqStage stage = ReqStage::Issued);

    /** Report that @p req moved to @p to; panics on illegal moves. */
    void onTransition(const mem::MemRequest &req, ReqStage to);

    /** Terminal consumption of @p req; panics on double retire. */
    void onRetire(const mem::MemRequest &req);

    /** Called from ~MemRequest; leak detection (see setStrictDestroy). */
    void onDestroy(const mem::MemRequest &req);

    /** Number of registered, not-yet-retired requests. */
    std::size_t liveCount() const;

    /**
     * Panic unless zero requests are live (end-of-drain conservation
     * check). @p where names the call site for the message.
     */
    void audit(const char *where) const;

    /** Drop all tracked state (new simulation session). */
    void clear();

    /// @name Counters (never reset by clear())
    /// @{
    std::uint64_t registered() const { return registered_; }
    std::uint64_t retired() const { return retiredCount_; }
    /// @}

    /** Events kept in the forensic ring (see recentEventsJson). */
    static constexpr std::size_t kEventRing = 32;

    /**
     * The last kEventRing lifecycle events (create / transition /
     * retire) as a JSON array, oldest first. Crash records embed this
     * so a post-mortem shows what the machine was doing right before
     * it died. Cheap to maintain (fixed ring, no allocation per
     * event); building the JSON allocates and is for failure paths
     * only.
     */
    std::string recentEventsJson() const;

  private:
    struct Entry
    {
        ReqStage stage = ReqStage::Issued;
        Cycle createdAt = 0;
    };

    /** One ring slot: a lifecycle event for the crash-forensics tail. */
    struct Event
    {
        std::uint64_t seq = 0;
        std::uint64_t addr = 0;
        ReqStage from = ReqStage::Issued;
        ReqStage to = ReqStage::Issued;
        std::uint8_t kind = 0; ///< 0 create, 1 transition, 2 retire
    };

    void record(std::uint8_t kind, std::uint64_t seq, std::uint64_t addr,
                ReqStage from, ReqStage to);

    const bool enabled_ = DCL1_CHECK_ENABLED != 0;
    bool strictDestroy_ = false;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t registered_ = 0;
    std::uint64_t retiredCount_ = 0;
    // Keyed lookups only; never iterated on a ticked path.
    std::unordered_map<std::uint64_t, Entry> entries_;
    std::array<Event, kEventRing> events_{};
    std::uint64_t eventCount_ = 0;
};

/** Shorthand for RequestLedger::instance(). */
inline RequestLedger &
ledger()
{
    return RequestLedger::instance();
}

} // namespace dcl1::check

#endif // DCL1_CHECK_REQUEST_LEDGER_HH
