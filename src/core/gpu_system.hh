/**
 * @file
 * GpuSystem: the fully wired simulated GPU for one (platform, design,
 * workload) triple, plus the cycle loop and metric extraction.
 *
 * Topologies:
 *  - PrivateBaseline: cores-with-L1 <-> 80x32 request/reply crossbars
 *    <-> L2 slices <-> DRAM channels.
 *  - CdXbar: same cores, hierarchical two-stage crossbars.
 *  - DcL1: lite cores <-> NoC#1 (Z crossbars of N x M) <-> DC-L1 nodes
 *    <-> NoC#2 (M crossbars of Z x L/M, or one full Y x L crossbar)
 *    <-> L2 slices <-> DRAM.
 *
 * Each topology is a choice of noc::Net objects made at construction
 * (core::buildNoc); one tick loop drives all of them.
 */

#ifndef DCL1_CORE_GPU_SYSTEM_HH
#define DCL1_CORE_GPU_SYSTEM_HH

#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "common/types.hh"
#include "core/dcl1_node.hh"
#include "core/design.hh"
#include "core/organization.hh"
#include "core/system_config.hh"
#include "gpucore/lite_core.hh"
#include "mem/address_map.hh"
#include "mem/dram.hh"
#include "mem/l2_slice.hh"
#include "mem/replication_tracker.hh"
#include "noc/net.hh"
#include "stats/latency_attr.hh"
#include "stats/timeline.hh"
#include "stats/trace_export.hh"
#include "workload/synthetic.hh"

namespace dcl1::core
{

/**
 * Timeline sampling interval: DCL1_TIMELINE_INTERVAL (strictly
 * parsed), default 1024 cycles.
 */
Cycle timelineIntervalFromEnv();

/**
 * The workload a design actually runs: applies design-driven
 * adjustments (today: the distributed CTA scheduler's locality boost)
 * to the catalog parameters. GpuSystem's built-in source uses this;
 * external sources (the serving layer's per-job streams) must apply it
 * themselves to stay equivalent to the classic path.
 */
workload::WorkloadParams effectiveWorkload(const DesignConfig &design,
                                           workload::WorkloadParams app);

/** Results of a measured simulation interval. */
struct RunMetrics
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;

    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    double l1MissRate = 0.0;

    double replicationRatio = 0.0;
    double avgReplicas = 0.0;

    /** Max per-L1/DC-L1 data-port utilization (accesses / cycle). */
    double maxL1PortUtil = 0.0;
    /** Max utilization of reply links into the cores (NoC#1/baseline). */
    double maxCoreReplyLinkUtil = 0.0;
    /** Max utilization of reply links from L2 (NoC#2/baseline). */
    double maxMemReplyLinkUtil = 0.0;

    double avgReadLatency = 0.0; ///< core-observed RTT in core cycles

    std::uint64_t noc1Flits = 0; ///< 0 for baseline topologies
    std::uint64_t noc2Flits = 0;

    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
};

/** See file comment. */
class GpuSystem
{
  public:
    /**
     * @param sys platform configuration
     * @param design cache-hierarchy design point
     * @param app workload description (drives the built-in synthetic
     *        source unless @p source is given)
     * @param source optional external instruction source (e.g. a
     *        workload::TraceFileSource); app is then only metadata
     */
    GpuSystem(const SystemConfig &sys, const DesignConfig &design,
              const workload::WorkloadParams &app,
              std::unique_ptr<workload::TraceSource> source = nullptr);

    /**
     * Build an idle machine: every core starts with no instruction
     * stream and issues nothing. The serving layer binds and unbinds
     * per-job streams on individual cores mid-run
     * (LiteCore::bindSource).
     */
    GpuSystem(const SystemConfig &sys, const DesignConfig &design);

    ~GpuSystem();

    GpuSystem(const GpuSystem &) = delete;
    GpuSystem &operator=(const GpuSystem &) = delete;

    /**
     * Called after every measured cycle when set; return false to end
     * the run early. The serving layer drives job arrivals, scheduling
     * and completion detection from this hook while reusing run()'s
     * leak guards, timeline sampling and invariant cadence.
     */
    using CycleHook = std::function<bool(Cycle)>;

    /**
     * Simulate warmup + measure cycles; statistics cover only the
     * measured interval.
     */
    void run(Cycle measure_cycles, Cycle warmup_cycles = 0,
             const CycleHook &on_cycle = {});

    /** Advance a single core cycle (exposed for tests). */
    void tickOnce();

    /** Reset all statistics (start of measured interval). */
    void resetStats();

    /** Any in-flight work anywhere in the machine? */
    bool busy();

    /**
     * Stop issuing new instructions and tick until every queue, MSHR,
     * NoC and DRAM channel drains (request-conservation check).
     * @return true if the machine drained within @p max_cycles.
     */
    bool drain(Cycle max_cycles = 100000);

    /** Dump every component's statistics as "path value" lines. */
    void dumpStats(std::ostream &os);

    /** Dump the same statistics tree as one JSON document. */
    void dumpStatsJson(std::ostream &os);

    /// @name Telemetry (all optional; zero-cost when not enabled)
    /// @{
    /**
     * Attach a cycle-interval timeline sampler emitting one JSONL row
     * per @p interval cycles through @p sink. Probes (IPC, miss rates,
     * flit rates, queue depths, ...) snapshot counter deltas, so rows
     * describe intervals, not cumulative state. Call before run().
     */
    void enableTimeline(Cycle interval, stats::LineSink sink);

    /**
     * Enable request-latency attribution, sampling 1 in
     * @p sample_every read requests (1 = all). Deterministically
     * seeded from the platform seed.
     */
    void enableLatency(std::uint32_t sample_every = 1);

    /**
     * Route sampled request lifecycles (and, when a timeline is also
     * enabled, per-interval utilization counters) into @p trace. The
     * exporter is bound to the calling thread — the thread that runs
     * the simulation. Not owned; pass nullptr to detach.
     */
    void enableTrace(stats::TraceExport *trace);

    /**
     * Flush the timeline's final partial row and end every in-flight
     * request's trace track here. Call after run(); drain() may follow.
     */
    void finishTelemetry();

    stats::TimelineSampler *timeline() { return timeline_.get(); }
    stats::LatencyAttribution *latency() { return tlm_.get(); }
    /// @}

    /**
     * System-wide invariant audit (DCL1_CHECK builds; no-op otherwise):
     * tag-array vs. replication-directory consistency and the internal
     * bookkeeping of every crossbar. panic()s on violation. run() calls
     * this periodically; drain() calls it (plus a request-ledger leak
     * audit) after a successful drain.
     */
    void checkInvariants(const char *where);

    /** Extract metrics for the interval since the last resetStats(). */
    RunMetrics metrics();

    Cycle cycle() const { return cycle_; }
    const SystemConfig &sysConfig() const { return sys_; }
    const DesignConfig &designConfig() const { return design_; }
    mem::ReplicationTracker &tracker() { return *tracker_; }
    std::vector<std::unique_ptr<gpucore::LiteCore>> &cores()
    {
        return cores_;
    }
    std::vector<std::unique_ptr<DcL1Node>> &nodes() { return nodes_; }
    std::vector<std::unique_ptr<mem::L2Slice>> &slices()
    {
        return slices_;
    }
    std::vector<std::unique_ptr<mem::DramChannel>> &channels()
    {
        return channels_;
    }
    /** The interconnect, one Net per direction (see nets_). */
    const std::vector<std::unique_ptr<noc::Net>> &nets() const
    {
        return nets_;
    }

  private:
    /** @p app may be null: no built-in source, cores start idle. */
    void build(const workload::WorkloadParams *app,
               std::unique_ptr<workload::TraceSource> source);

    void tickMemory();

    /** Stamp @p req into segment @p seg and inject it into @p net. */
    void send(noc::Net &net, std::uint32_t src, std::uint32_t dst,
              mem::MemRequestPtr req, stats::Seg seg);

    /**
     * Host-profiler bookkeeping (called only while prof::active()):
     * counts components that will tick this cycle with nothing to do,
     * the signal the event-driven-ticking arc needs to size its win,
     * and busy cores whose last tick issued, moved and retired nothing.
     */
    void countQuiescent();

    mem::CacheBankParams l1BankParams() const;
    mem::CacheBankParams l2BankParams() const;

    /**
     * Call @p f on every L1-level cache bank: the DC-L1 nodes' caches,
     * or the cores' private L1s.
     */
    template <typename F> void forEachL1(F &&f) const;

    /** Flits delivered by every crossbar at NoC level @p level. */
    std::uint64_t nocFlits(std::uint32_t level) const;

    /** Attach every component StatGroup (and telemetry) to @p root. */
    void addStatChildren(stats::StatGroup &root);
    void registerTimelineProbes();

    SystemConfig sys_;
    DesignConfig design_;

    mem::AddressMap addrMap_;
    std::unique_ptr<workload::TraceSource> source_;
    std::unique_ptr<mem::ReplicationTracker> tracker_;
    std::unique_ptr<Organization> org_;

    std::vector<std::unique_ptr<gpucore::LiteCore>> cores_;
    std::vector<std::unique_ptr<DcL1Node>> nodes_;
    std::vector<std::unique_ptr<mem::L2Slice>> slices_;
    std::vector<std::unique_ptr<mem::DramChannel>> channels_;

    /** The interconnect, in buildNoc()'s order. */
    std::vector<std::unique_ptr<noc::Net>> nets_;

    std::unique_ptr<stats::TimelineSampler> timeline_;
    std::unique_ptr<stats::LatencyAttribution> tlm_;
    stats::TraceExport *trace_ = nullptr; ///< not owned

    Cycle cycle_ = 0;
    Cycle statStart_ = 0;
};

} // namespace dcl1::core

#endif // DCL1_CORE_GPU_SYSTEM_HH
