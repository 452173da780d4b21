/**
 * @file
 * Request-latency attribution.
 *
 * Splits a memory request's round trip into pipeline segments (core
 * issue -> NoC request -> cache/MSHR -> L2 -> DRAM -> NoC reply ->
 * retire) by accumulating cycles *per segment* instead of recording a
 * fixed stage order: every component that takes custody of a request
 * calls tlmEnter() with its segment, which closes the span the request
 * spent in the previous segment. Revisits (e.g. the reply passing back
 * through a cache) simply accumulate more cycles into that segment, so
 * the scheme is topology-agnostic and the per-segment cycles always sum
 * exactly to retire - issue.
 *
 * Overhead discipline: ReqTelemetry rides inside MemRequest and
 * tlmEnter() is a single load-and-branch when the request is unsampled
 * (sampleId == 0), which is also the state of every request when
 * attribution is disabled. Sampling (1-in-N) is driven by a private
 * Rng seeded from the simulation seed — never wall clock — so same-seed
 * runs attribute the same requests.
 */

#ifndef DCL1_STATS_LATENCY_ATTR_HH
#define DCL1_STATS_LATENCY_ATTR_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>

#include "common/rng.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace dcl1::stats
{

/** Pipeline segment a request can spend cycles in. */
enum class Seg : std::uint8_t
{
    Issue,    ///< core-side queueing before entering the NoC
    NocReq,   ///< request-network traversal
    Cache,    ///< L1 / DC-L1 port, MSHR and node queues
    L2,       ///< L2 slice input queue + bank
    Dram,     ///< DRAM channel queue + service
    NocReply, ///< reply-network traversal back to the core
};

constexpr std::size_t kNumSegs = 6;

/** Stable display name ("issue", "noc-req", ...). */
const char *segName(Seg s);

/**
 * Per-request attribution state, embedded in MemRequest. A 40-byte
 * fixed cost per request; dormant (sampleId == 0) unless the request
 * was picked by LatencyAttribution::onCreate.
 */
struct ReqTelemetry
{
    std::uint32_t sampleId = 0; ///< 0 = unsampled (the common case)
    std::uint8_t curSeg = 0;    ///< segment currently accumulating
    Cycle lastStamp = 0;        ///< cycle the current segment began
    std::array<std::uint32_t, kNumSegs> segCycles{};
};

/** Out-of-line slow path: close the previous segment's span. */
void tlmEnterSlow(ReqTelemetry &t, Seg s, Cycle now);

/**
 * Mark the request as entering segment @p s at cycle @p now. The
 * no-telemetry fast path is one branch on a field that is already in
 * cache next to the request's routing state.
 */
inline void
tlmEnter(ReqTelemetry &t, Seg s, Cycle now)
{
    if (t.sampleId != 0)
        tlmEnterSlow(t, s, now);
}

/**
 * Owns the per-segment latency Distributions and the sampling policy.
 * One instance per GpuSystem; cores call onCreate/onRetire, everything
 * in between stamps through the free tlmEnter().
 */
class LatencyAttribution
{
  public:
    /**
     * @param seed deterministic seed (derive from the sim seed)
     * @param sample_every attribute 1 in N read requests (1 = all)
     */
    LatencyAttribution(std::uint64_t seed, std::uint32_t sample_every);

    /** Maybe pick this request for attribution; stamps Issue. */
    void onCreate(ReqTelemetry &t, Cycle now);

    /** Close the final span and deposit the segments. */
    void onRetire(ReqTelemetry &t, Cycle now);

    /**
     * End the current span of every unretired sampled request at @p now,
     * in the segment it is in, so a trace reaches the end of the run.
     */
    void closeOpenSpans(Cycle now);

    /** Clear collected distributions (measurement-interval rebase). */
    void reset();

    StatGroup &statGroup() { return group_; }
    const Distribution &segment(Seg s) const
    {
        return segDists_[static_cast<std::size_t>(s)];
    }
    const Distribution &total() const { return totalDist_; }

    /** Human-readable latency-breakdown table (dcl1run headline). */
    void printBreakdown(std::ostream &os) const;

  private:
    Rng rng_;
    std::uint32_t sampleEvery_;
    std::uint32_t nextId_ = 0;
    /**
     * Unretired sampled requests in id order, so closeOpenSpans() is a
     * pure function of the seed. A request retires before it is
     * destroyed, so each pointer is valid until onRetire() erases it.
     */
    std::map<std::uint32_t, ReqTelemetry *> inFlight_;
    std::array<Distribution, kNumSegs> segDists_;
    Distribution totalDist_;
    StatGroup group_;
};

} // namespace dcl1::stats

#endif // DCL1_STATS_LATENCY_ATTR_HH
