#include "stats/latency_attr.hh"

#include "common/log.hh"
#include "stats/trace_export.hh"

namespace dcl1::stats
{

const char *
segName(Seg s)
{
    switch (s) {
      case Seg::Issue:
        return "issue";
      case Seg::NocReq:
        return "noc-req";
      case Seg::Cache:
        return "cache";
      case Seg::L2:
        return "l2";
      case Seg::Dram:
        return "dram";
      case Seg::NocReply:
        return "noc-reply";
    }
    return "unknown";
}

void
tlmEnterSlow(ReqTelemetry &t, Seg s, Cycle now)
{
    if (now > t.lastStamp) {
        const Cycle span = now - t.lastStamp;
        t.segCycles[t.curSeg] += static_cast<std::uint32_t>(span);
        if (TraceExport *trace = tlsTraceSink())
            trace->reqSlice(t.sampleId,
                            segName(static_cast<Seg>(t.curSeg)),
                            t.lastStamp, now);
    }
    t.lastStamp = now;
    t.curSeg = static_cast<std::uint8_t>(s);
}

namespace
{

/**
 * Bucket geometry tuned for read round trips in the few-hundred-cycle
 * range: fine enough for meaningful p50/p95, overflow falls back to
 * the observed maximum (see Distribution::percentile).
 */
constexpr std::uint64_t kSegBucketWidth = 16;
constexpr std::uint32_t kSegBuckets = 128;
constexpr std::uint64_t kTotalBucketWidth = 32;
constexpr std::uint32_t kTotalBuckets = 128;

} // anonymous namespace

LatencyAttribution::LatencyAttribution(std::uint64_t seed,
                                       std::uint32_t sample_every)
    : rng_(seed), sampleEvery_(sample_every == 0 ? 1 : sample_every),
      segDists_{Distribution(kSegBucketWidth, kSegBuckets),
                Distribution(kSegBucketWidth, kSegBuckets),
                Distribution(kSegBucketWidth, kSegBuckets),
                Distribution(kSegBucketWidth, kSegBuckets),
                Distribution(kSegBucketWidth, kSegBuckets),
                Distribution(kSegBucketWidth, kSegBuckets)},
      totalDist_(kTotalBucketWidth, kTotalBuckets), group_("latency")
{
    for (std::size_t i = 0; i < kNumSegs; ++i)
        group_.addDistribution(segName(static_cast<Seg>(i)),
                               &segDists_[i]);
    group_.addDistribution("total", &totalDist_);
}

void
LatencyAttribution::onCreate(ReqTelemetry &t, Cycle now)
{
    // The 1-in-N draw happens for every candidate regardless of the
    // outcome, so the Rng stream — and therefore which requests are
    // attributed — is a pure function of the seed.
    if (sampleEvery_ > 1 && rng_.below(sampleEvery_) != 0)
        return;
    t.sampleId = ++nextId_;
    t.curSeg = static_cast<std::uint8_t>(Seg::Issue);
    t.lastStamp = now;
    t.segCycles.fill(0);
    inFlight_.emplace_hint(inFlight_.end(), t.sampleId, &t);
}

void
LatencyAttribution::onRetire(ReqTelemetry &t, Cycle now)
{
    if (t.sampleId == 0)
        return;
    // Close the span the request was in when it completed.
    tlmEnterSlow(t, static_cast<Seg>(t.curSeg), now);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kNumSegs; ++i) {
        if (t.segCycles[i] != 0)
            segDists_[i].sample(t.segCycles[i]);
        total += t.segCycles[i];
    }
    totalDist_.sample(total);
    inFlight_.erase(t.sampleId);
    t.sampleId = 0; // a request retires exactly once
}

void
LatencyAttribution::closeOpenSpans(Cycle now)
{
    for (const auto &open : inFlight_) {
        ReqTelemetry &t = *open.second;
        tlmEnterSlow(t, static_cast<Seg>(t.curSeg), now);
    }
}

void
LatencyAttribution::reset()
{
    group_.reset();
}

void
LatencyAttribution::printBreakdown(std::ostream &os) const
{
    const std::uint64_t n = totalDist_.count();
    os << csprintf("latency breakdown (%llu sampled read(s), 1-in-%u)\n",
                   static_cast<unsigned long long>(n), sampleEvery_);
    if (n == 0)
        return;
    os << csprintf("  %-10s %9s %7s %8s %8s %8s\n", "segment", "cycles",
                   "share", "p50", "p95", "p99");
    const double total_mean = totalDist_.mean();
    for (std::size_t i = 0; i < kNumSegs; ++i) {
        const Distribution &d = segDists_[i];
        // Mean *contribution*: segment sum over all sampled requests,
        // so the column sums to the total round trip.
        const double contrib = double(d.sum()) / double(n);
        os << csprintf("  %-10s %9.1f %6.1f%% %8.1f %8.1f %8.1f\n",
                       segName(static_cast<Seg>(i)), contrib,
                       total_mean > 0.0 ? 100.0 * contrib / total_mean
                                        : 0.0,
                       d.percentile(50), d.percentile(95),
                       d.percentile(99));
    }
    os << csprintf("  %-10s %9.1f %6.1f%% %8.1f %8.1f %8.1f\n", "total",
                   total_mean, 100.0, totalDist_.percentile(50),
                   totalDist_.percentile(95), totalDist_.percentile(99));
}

} // namespace dcl1::stats
