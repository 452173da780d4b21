/**
 * @file
 * The memory transaction object threaded through the whole hierarchy.
 *
 * A MemRequest is created by a GPU core's coalescer, travels through the
 * (DC-)L1, the NoCs, the L2 and possibly DRAM, and is turned around in
 * place as a reply. Ownership is a unique_ptr moved from queue to queue;
 * MSHR merging stores secondary requests inside the MSHR entry.
 */

#ifndef DCL1_MEM_REQUEST_HH
#define DCL1_MEM_REQUEST_HH

#include <cstdint>
#include <memory>

#include "common/types.hh"
#include "prof/prof.hh"
#include "stats/latency_attr.hh"

namespace dcl1::mem
{

/** Kind of memory operation. */
enum class MemOp : std::uint8_t
{
    Read,   ///< global-load line fetch (uses L1/DC-L1)
    Write,  ///< global-store (write-evict / no-write-allocate at L1)
    Atomic, ///< atomic op; skips L1/DC-L1, resolved at L2/MC
    Bypass, ///< non-L1 traffic (I-cache/texture/constant miss); skips DC-L1$
};

/** Debug: when true, destroying a request that is still a registered
 *  MSHR fetch aborts (it would leak the MSHR entry forever).
 *  Thread-local: GpuSystem::run arms it for its own cycle loop only,
 *  and concurrent simulations on other threads must not observe it. */
extern thread_local bool gFetchLeakCheck;

/** A single memory transaction. */
struct MemRequest
{
    ~MemRequest();

    MemOp op = MemOp::Read;
    bool isReply = false;

    /** Byte address of the access (line aligned for fetches). */
    Addr addr = 0;

    /** Bytes the requester actually needs (<= line size). */
    std::uint32_t bytes = 32;

    /**
     * Bytes moved on the current leg of the journey. Requests toward
     * memory carry this many payload bytes (write data; 0 for read
     * requests); replies carry the returned data. Used to compute NoC
     * flit counts.
     */
    std::uint32_t payloadBytes = 0;

    /** Issuing core and wavefront. */
    CoreId core = invalidId;
    WarpId warp = invalidId;

    /** Home DC-L1 node (set by the cache organization). */
    NodeId homeNode = invalidId;

    /** Target L2 slice (set by the address map). */
    SliceId slice = invalidId;

    /** Core cycle at which the coalescer created the request. */
    Cycle createdAt = 0;

    /** Core cycle at which the (DC-)L1 began serving the request. */
    Cycle l1ServiceAt = 0;

    /**
     * Number of cache levels that currently treat this request as
     * their MSHR primary line fetch. An L1 miss makes it an L1 fetch
     * (depth 1); missing again at the L2 makes it an L2 fetch too
     * (depth 2). Each level's fill() decrements it, so payload sizing
     * and fill routing can tell whose fetch a reply still is.
     */
    std::uint8_t fetchDepth = 0;

    /**
     * check::RequestLedger sequence number; 0 = untracked. Assigned at
     * registration, used to audit the request's lifecycle state
     * machine (see check/request_ledger.hh).
     */
    std::uint64_t chkSeq = 0;

    /**
     * Latency-attribution state; dormant (sampleId == 0) unless this
     * request was picked by the system's LatencyAttribution sampler
     * (see stats/latency_attr.hh).
     */
    stats::ReqTelemetry tlm;

    bool isFetch() const { return fetchDepth > 0; }

    bool isWrite() const { return op == MemOp::Write; }
    bool isAtomic() const { return op == MemOp::Atomic; }
    bool isBypass() const { return op == MemOp::Bypass; }

    /** Does this request look up the (DC-)L1 data cache? */
    bool usesL1() const { return op == MemOp::Read || op == MemOp::Write; }

    /** Line address for a given line size. */
    LineAddr
    line(std::uint32_t line_bytes = defaultLineBytes) const
    {
        return addr / line_bytes;
    }
};

using MemRequestPtr = std::unique_ptr<MemRequest>;

/** Convenience factory. */
inline MemRequestPtr
makeRequest(MemOp op, Addr addr, std::uint32_t bytes, CoreId core,
            WarpId warp, Cycle now)
{
    DCL1_PROF_COUNT(MemReqAlloc, 1);
    auto r = std::make_unique<MemRequest>();
    r->op = op;
    r->addr = addr;
    r->bytes = bytes;
    r->payloadBytes = (op == MemOp::Write) ? bytes : 0;
    r->core = core;
    r->warp = warp;
    r->createdAt = now;
    return r;
}

} // namespace dcl1::mem

#endif // DCL1_MEM_REQUEST_HH
