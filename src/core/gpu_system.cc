#include "core/gpu_system.hh"

#include <algorithm>
#include <limits>

#include "check/check.hh"
#include "check/request_ledger.hh"
#include "common/env.hh"
#include "common/log.hh"
#include "noc/packet.hh"
#include "prof/prof.hh"

namespace dcl1::core
{

Cycle
timelineIntervalFromEnv()
{
    return static_cast<Cycle>(
        envIntOr("DCL1_TIMELINE_INTERVAL", 1024, 1,
                 std::numeric_limits<std::int64_t>::max()));
}

workload::WorkloadParams
effectiveWorkload(const DesignConfig &design, workload::WorkloadParams app)
{
    if (design.distributedCta) {
        // The distributed CTA scheduler [28] maps nearby CTAs to the
        // same core, confining each core's shared accesses to a range
        // small enough that even a private L1 captures much of it
        // (this is why the scheduler shrinks the paper's DC-L1
        // headroom).
        app.ctaLocality = std::max(app.ctaLocality, 0.85);
    }
    return app;
}

GpuSystem::GpuSystem(const SystemConfig &sys, const DesignConfig &design,
                     const workload::WorkloadParams &app,
                     std::unique_ptr<workload::TraceSource> source)
    : sys_(sys), design_(design),
      addrMap_(sys.numL2Slices, sys.numChannels, sys.chunkBytes)
{
    build(&app, std::move(source));
}

GpuSystem::GpuSystem(const SystemConfig &sys, const DesignConfig &design)
    : sys_(sys), design_(design),
      addrMap_(sys.numL2Slices, sys.numChannels, sys.chunkBytes)
{
    build(nullptr, nullptr);
}

GpuSystem::~GpuSystem()
{
    // Never leave a dangling thread-local trace sink behind.
    if (trace_ && stats::tlsTraceSink() == trace_)
        stats::tlsTraceSink() = nullptr;
}

mem::CacheBankParams
GpuSystem::l1BankParams() const
{
    mem::CacheBankParams p;
    p.name = "l1";
    p.sizeBytes = design_.l1SizeFor(sys_);
    p.assoc = sys_.l1Assoc;
    p.lineBytes = sys_.lineBytes;
    p.latency = design_.l1LatencyFor(sys_);
    p.mshrs = sys_.l1Mshrs;
    p.targetsPerMshr = sys_.l1TargetsPerMshr;
    p.policy = sys_.l1WritePolicy;
    p.repl = sys_.l1Repl;
    p.perfect = design_.perfectL1;
    if (design_.topology == Topology::DcL1) {
        // Aggregated nodes serve several cores: scale the MSHR file
        // with the aggregation factor (capacity is aggregated), and
        // scale the merge-target capacity with the worst-case sharing
        // degree so cross-core merging does not head-of-line block Q1.
        p.mshrs = sys_.l1Mshrs * design_.coresPerNode(sys_);
        const std::uint32_t sharers = design_.coresPerCluster(sys_);
        p.targetsPerMshr = sys_.l1TargetsPerMshr *
                           std::max<std::uint32_t>(1, sharers / 4);
        p.downstreamCap = 8 * design_.coresPerNode(sys_);
    }
    // Larger caches need associativity to scale a little for LRU not
    // to be the bottleneck in capacity studies (16x L1 of Fig. 1).
    if (design_.l1CapacityScale > 1.0)
        p.assoc = sys_.l1Assoc * 2;
    return p;
}

mem::CacheBankParams
GpuSystem::l2BankParams() const
{
    mem::CacheBankParams p;
    p.name = "l2";
    p.sizeBytes = sys_.l2SliceSizeBytes;
    p.assoc = sys_.l2Assoc;
    p.lineBytes = sys_.lineBytes;
    p.latency = sys_.l2Latency;
    p.mshrs = sys_.l2Mshrs;
    p.targetsPerMshr = sys_.l2TargetsPerMshr;
    p.downstreamCap = 16;
    p.policy = mem::WritePolicy::WriteBack;
    p.repl = mem::ReplPolicy::Lru;
    p.tlmSeg = stats::Seg::L2;
    return p;
}

template <typename F>
void
GpuSystem::forEachL1(F &&f) const
{
    for (const auto &node : nodes_)
        f(node->cache());
    for (const auto &core : cores_)
        if (const mem::CacheBank *l1 = core->l1())
            f(*l1);
}

std::uint64_t
GpuSystem::nocFlits(std::uint32_t level) const
{
    std::uint64_t sum = 0;
    for (const auto &net : nets_)
        for (const noc::Net::Member &m : net->xbars())
            if (m.level == level)
                sum += m.xbar->totalFlits();
    return sum;
}

void
GpuSystem::build(const workload::WorkloadParams *app,
                 std::unique_ptr<workload::TraceSource> source)
{
    DCL1_PROF_SCOPE(Build);
    sys_.validate();
    design_.validate(sys_);
    if (source) {
        source_ = std::move(source);
    } else if (app) {
        source_ = std::make_unique<workload::SyntheticSource>(
            effectiveWorkload(design_, *app), sys_.numCores,
            sys_.lineBytes, sys_.seed);
    }

    // DC-L1 designs strip the cores' L1s (the paper's "Lite Cores");
    // the replication directory then tracks the nodes' caches.
    const bool lite_cores = design_.topology == Topology::DcL1;
    tracker_ = std::make_unique<mem::ReplicationTracker>(
        lite_cores ? design_.numNodes : sys_.numCores);

    for (std::uint32_t c = 0; c < sys_.numChannels; ++c) {
        mem::DramParams dp = sys_.dram;
        dp.name = "dram" + std::to_string(c);
        dp.chunkBytes = sys_.chunkBytes;
        dp.numChannels = sys_.numChannels;
        channels_.push_back(std::make_unique<mem::DramChannel>(dp));
    }
    for (SliceId s = 0; s < sys_.numL2Slices; ++s) {
        mem::CacheBankParams l2p = l2BankParams();
        l2p.name = "l2s" + std::to_string(s);
        slices_.push_back(std::make_unique<mem::L2Slice>(
            l2p, s, channels_[addrMap_.channelOfSlice(s)].get()));
    }
    for (CoreId c = 0; c < sys_.numCores; ++c) {
        gpucore::LiteCoreParams cp;
        cp.id = c;
        cp.sched = sys_.warpScheduler;
        cp.hasL1 = !lite_cores;
        if (cp.hasL1)
            cp.l1 = l1BankParams();
        cores_.push_back(std::make_unique<gpucore::LiteCore>(
            cp, source_.get(), cp.hasL1 ? tracker_.get() : nullptr));
    }

    if (lite_cores) {
        org_ = std::make_unique<Organization>(design_, sys_);
        for (NodeId n = 0; n < design_.numNodes; ++n) {
            nodes_.push_back(std::make_unique<DcL1Node>(
                l1BankParams(), n, sys_.nodeQueueCap, tracker_.get(),
                design_.fullLineReplies));
        }
    }
    nets_ = buildNoc(design_, sys_);
}

void
GpuSystem::tickMemory()
{
    {
        DCL1_PROF_SCOPE(Dram);
        for (auto &ch : channels_)
            ch->tick(cycle_);
    }
    {
        // Channels never interact, so filling the slices channel by
        // channel after every channel ticked keeps the fill order.
        DCL1_PROF_SCOPE(L2);
        for (auto &ch : channels_) {
            while (auto done = ch->takeCompleted(cycle_)) {
                const SliceId s = (*done)->slice;
                if (s >= slices_.size())
                    panic("DRAM reply with bad slice %u", s);
                slices_[s]->onDramReply(std::move(*done), cycle_);
            }
        }
        for (auto &slice : slices_)
            slice->tick(cycle_);
    }
}

void
GpuSystem::countQuiescent()
{
    std::uint64_t idle_cores = 0;
    std::uint64_t stalled_cores = 0;
    for (const auto &core : cores_) {
        if (!core->busy())
            ++idle_cores;
        else if (core->stalled())
            ++stalled_cores;
    }
    DCL1_PROF_COUNT(QuiescentCore, idle_cores);
    DCL1_PROF_COUNT(StalledCore, stalled_cores);
    std::uint64_t idle_nodes = 0;
    for (const auto &node : nodes_)
        if (!node->busy())
            ++idle_nodes;
    DCL1_PROF_COUNT(QuiescentNode, idle_nodes);
}

void
GpuSystem::send(noc::Net &net, std::uint32_t src, std::uint32_t dst,
                mem::MemRequestPtr req, stats::Seg seg)
{
    stats::tlmEnter(req->tlm, seg, cycle_);
    const std::uint32_t flits = noc::flitsFor(*req, sys_.flitBytes);
    net.inject(src, dst, std::move(req), flits);
}

void
GpuSystem::tickOnce()
{
    ++cycle_;
    DCL1_PROF_COUNT(TickCycles, 1);
    if (prof::active())
        countQuiescent();
    tickMemory();

    noc::Net &core_req = *nets_.front();
    noc::Net &core_reply = *nets_[1];
    noc::Net &mem_req = *nets_[nets_.size() - 2];
    noc::Net &mem_reply = *nets_.back();

    {
        DCL1_PROF_SCOPE(Noc);
        // L2 replies go to the requesting core, or on DC-L1 designs to
        // the home node that missed.
        for (SliceId s = 0; s < sys_.numL2Slices; ++s) {
            while (mem_reply.canInject(s)) {
                auto reply = slices_[s]->takeReply();
                if (!reply)
                    break;
                const std::uint32_t dst =
                    org_ ? (*reply)->homeNode : (*reply)->core;
                send(mem_reply, s, dst, std::move(*reply),
                     stats::Seg::NocReply);
            }
        }

        for (auto &net : nets_)
            net->tick();

        // Ejection, with backpressure from slices and node queues.
        for (SliceId s = 0; s < sys_.numL2Slices; ++s) {
            while (mem_req.hasEjectable(s) &&
                   slices_[s]->canAcceptRequest())
                slices_[s]->pushRequest(mem_req.eject(s), cycle_);
        }
        // Time queued in Q4 and Q1 counts against the DC-L1 cache.
        for (NodeId n = 0; n < nodes_.size(); ++n) {
            while (mem_reply.hasEjectable(n) &&
                   nodes_[n]->canAcceptFromMem()) {
                mem::MemRequestPtr reply = mem_reply.eject(n);
                stats::tlmEnter(reply->tlm, stats::Seg::Cache, cycle_);
                nodes_[n]->pushFromMem(std::move(reply));
            }
        }
        for (NodeId n = 0; n < nodes_.size(); ++n) {
            while (core_req.hasEjectable(n) &&
                   nodes_[n]->canAcceptFromCore()) {
                mem::MemRequestPtr req = core_req.eject(n);
                stats::tlmEnter(req->tlm, stats::Seg::Cache, cycle_);
                nodes_[n]->pushFromCore(std::move(req));
            }
        }
        for (CoreId c = 0; c < sys_.numCores; ++c) {
            while (core_reply.hasEjectable(c))
                cores_[c]->deliverReply(core_reply.eject(c), cycle_);
        }
    }

    // DC-L1 nodes tick, then send Q3 to NoC#2 and Q2 to NoC#1.
    if (!nodes_.empty()) {
        DCL1_PROF_SCOPE(Node);
        for (NodeId n = 0; n < nodes_.size(); ++n) {
            DcL1Node &node = *nodes_[n];
            node.tick(cycle_);
            while (node.hasToMem() && mem_req.canInject(n)) {
                mem::MemRequestPtr req = std::move(*node.takeToMem());
                const SliceId slice = addrMap_.slice(req->addr);
                req->slice = slice;
                send(mem_req, n, slice, std::move(req),
                     stats::Seg::NocReq);
            }
            while (node.hasToCore() && core_reply.canInject(n)) {
                mem::MemRequestPtr reply = std::move(*node.takeToCore());
                const CoreId core = reply->core;
                send(core_reply, n, core, std::move(reply),
                     stats::Seg::NocReply);
            }
        }
    }

    // Cores send their outbound requests (L1 misses, write-throughs,
    // atomics, bypasses; everything from a lite core), then tick.
    DCL1_PROF_SCOPE(Core);
    for (CoreId c = 0; c < sys_.numCores; ++c) {
        gpucore::LiteCore &core = *cores_[c];
        while (core.hasOutbound() && core_req.canInject(c)) {
            mem::MemRequestPtr req = std::move(*core.takeOutbound());
            std::uint32_t dst;
            if (org_)
                dst = req->homeNode = org_->homeNode(c, req->addr);
            else
                dst = req->slice = addrMap_.slice(req->addr);
            send(core_req, c, dst, std::move(req), stats::Seg::NocReq);
        }
        core.tick(cycle_);
    }
}

namespace
{

/**
 * Arms the in-loop leak checks and guarantees they are disarmed even
 * when the loop is abandoned by an exception (a trapped panic):
 * teardown of a half-simulated machine legitimately destroys
 * in-flight requests.
 */
struct RunLoopGuard
{
    RunLoopGuard()
    {
        mem::gFetchLeakCheck = true;
        // Inside the cycle loop every request destruction must follow
        // a retirement; partially simulated systems torn down outside
        // run() legitimately destroy in-flight requests.
        DCL1_CHECK_ONLY(check::ledger().setStrictDestroy(true));
    }

    ~RunLoopGuard()
    {
        DCL1_CHECK_ONLY(check::ledger().setStrictDestroy(false));
        mem::gFetchLeakCheck = false;
    }
};

} // anonymous namespace

void
GpuSystem::run(Cycle measure_cycles, Cycle warmup_cycles,
               const CycleHook &on_cycle)
{
    RunLoopGuard guard;
    DCL1_PROF_SCOPE(Run);
    for (Cycle i = 0; i < warmup_cycles; ++i) {
        tickOnce();
        if (timeline_) {
            DCL1_PROF_SCOPE(Telemetry);
            timeline_->maybeSample(cycle_);
        }
        if ((i & 4095) == 4095) {
            DCL1_CHECK_ONLY({
                DCL1_PROF_SCOPE(Check);
                checkInvariants("warmup");
            });
        }
    }
    resetStats();
    for (Cycle i = 0; i < measure_cycles; ++i) {
        tickOnce();
        if (timeline_) {
            DCL1_PROF_SCOPE(Telemetry);
            timeline_->maybeSample(cycle_);
        }
        if (on_cycle && !on_cycle(cycle_))
            break;
        if ((i & 4095) == 4095) {
            DCL1_CHECK_ONLY({
                DCL1_PROF_SCOPE(Check);
                checkInvariants("measure");
            });
        }
    }
}

void
GpuSystem::resetStats()
{
    // The timeline must emit the tail of the pre-reset interval while
    // the counters it differences still hold their pre-reset values.
    if (timeline_)
        timeline_->flushTail(cycle_);

    statStart_ = cycle_;
    for (auto &core : cores_)
        core->statGroup().reset();
    for (auto &node : nodes_)
        node->statGroup().reset();
    for (auto &slice : slices_)
        slice->bank().statGroup().reset();
    for (auto &ch : channels_)
        ch->statGroup().reset();
    tracker_->resetStats();
    for (auto &net : nets_)
        net->resetStats();
    if (tlm_)
        tlm_->reset();

    // Counters just snapped back to zero: re-read every probe baseline
    // so the first measured interval differences against zero, not the
    // warmup totals (unsigned deltas would underflow otherwise).
    if (timeline_)
        timeline_->rebase(cycle_);
}

bool
GpuSystem::busy()
{
    for (auto &core : cores_)
        if (core->busy())
            return true;
    for (auto &node : nodes_)
        if (node->busy())
            return true;
    for (auto &slice : slices_)
        if (slice->busy())
            return true;
    for (auto &ch : channels_)
        if (ch->busy())
            return true;
    for (auto &net : nets_)
        if (net->busy())
            return true;
    return false;
}

bool
GpuSystem::drain(Cycle max_cycles)
{
    DCL1_PROF_SCOPE(Drain);
    for (auto &core : cores_)
        core->setIssueEnabled(false);
    Cycle waited = 0;
    while (busy() && waited < max_cycles) {
        tickOnce();
        ++waited;
    }
    for (auto &core : cores_)
        core->setIssueEnabled(true);
    const bool drained = !busy();
    if (drained) {
        // With the machine empty, every registered request must have
        // retired, and directory/tag state must agree exactly.
        checkInvariants("drain");
        DCL1_CHECK_ONLY(check::ledger().audit("drain"));
    }
    return drained;
}

void
GpuSystem::checkInvariants(const char *where)
{
#if DCL1_CHECK_ENABLED
    // Tag arrays vs. the replication directory: every valid line in a
    // tracked cache must be recorded as held by that cache, and the
    // directory must hold no phantom presence (total copy count equals
    // total tag occupancy).
    std::uint64_t occupancy = 0;
    forEachL1([&](const mem::CacheBank &bank) {
        if (bank.params().perfect)
            return;
        bank.tags().forEachValidLine([&](LineAddr line) {
            ++occupancy;
            if (!tracker_->holds(bank.cacheId(), line))
                panic("checkInvariants(%s): cache %u holds line %llx "
                      "missing from the replication directory",
                      where, bank.cacheId(),
                      static_cast<unsigned long long>(line));
        });
    });
    if (tracker_->totalPresence() != occupancy)
        panic("checkInvariants(%s): replication directory records %llu "
              "copies but tag arrays hold %llu lines",
              where,
              static_cast<unsigned long long>(tracker_->totalPresence()),
              static_cast<unsigned long long>(occupancy));

    // Every L1-level read miss is one directory miss, and only once:
    // an access the MSHR blocks is retried, not counted again.
    std::uint64_t read_misses = 0;
    forEachL1([&](const mem::CacheBank &bank) {
        read_misses += bank.readMisses();
    });
    if (tracker_->totalMisses() != read_misses)
        panic("checkInvariants(%s): replication directory counts %llu "
              "misses but the L1s count %llu read misses",
              where,
              static_cast<unsigned long long>(tracker_->totalMisses()),
              static_cast<unsigned long long>(read_misses));

    // NoC internal bookkeeping (crossbars also self-audit on their own
    // NoC-cycle cadence; this forces a full sweep now).
    for (const auto &net : nets_)
        net->checkInvariants();
#else
    (void)where;
#endif // DCL1_CHECK_ENABLED
}

void
GpuSystem::addStatChildren(stats::StatGroup &root)
{
    for (auto &core : cores_)
        root.addChild(&core->statGroup());
    for (auto &node : nodes_)
        root.addChild(&node->statGroup());
    for (auto &slice : slices_)
        root.addChild(&slice->bank().statGroup());
    for (auto &ch : channels_)
        root.addChild(&ch->statGroup());
    root.addChild(&tracker_->statGroup());
    for (auto &net : nets_)
        for (const noc::Net::Member &m : net->xbars())
            root.addChild(&m.xbar->statGroup());
    if (tlm_)
        root.addChild(&tlm_->statGroup());
}

void
GpuSystem::dumpStats(std::ostream &os)
{
    stats::StatGroup root("gpu");
    addStatChildren(root);
    root.dump(os);
}

void
GpuSystem::dumpStatsJson(std::ostream &os)
{
    stats::StatGroup root("gpu");
    addStatChildren(root);
    root.dumpJson(os);
    os << "\n";
}

void
GpuSystem::enableTimeline(Cycle interval, stats::LineSink sink)
{
    timeline_ = std::make_unique<stats::TimelineSampler>(interval,
                                                         std::move(sink));
    registerTimelineProbes();
    timeline_->start(cycle_);
}

void
GpuSystem::registerTimelineProbes()
{
    stats::TimelineSampler &tl = *timeline_;

    tl.addPerCycle("ipc", [this] {
        std::uint64_t sum = 0;
        for (auto &core : cores_)
            sum += core->instructions();
        return sum;
    });

    auto l1_misses = [this] {
        std::uint64_t sum = 0;
        forEachL1([&](const mem::CacheBank &b) { sum += b.misses(); });
        return sum;
    };
    auto l1_accesses = [this] {
        std::uint64_t sum = 0;
        forEachL1([&](const mem::CacheBank &b) { sum += b.accesses(); });
        return sum;
    };
    tl.addRatio("l1_miss_rate", l1_misses, l1_accesses);

    tl.addRatio(
        "repl_ratio", [this] { return tracker_->replicatedMisses(); },
        [this] { return tracker_->totalMisses(); });

    tl.addRatio(
        "l2_miss_rate",
        [this] {
            std::uint64_t sum = 0;
            for (auto &slice : slices_)
                sum += slice->bank().misses();
            return sum;
        },
        [this] {
            std::uint64_t sum = 0;
            for (auto &slice : slices_)
                sum += slice->bank().accesses();
            return sum;
        });

    bool has_noc1 = false;
    for (const auto &net : nets_)
        for (const noc::Net::Member &m : net->xbars())
            has_noc1 |= m.level == 1;
    if (has_noc1)
        tl.addPerCycle("noc1_flits", [this] { return nocFlits(1); });
    tl.addPerCycle("noc2_flits", [this] { return nocFlits(2); });

    auto mshr_in_use = [this] {
        std::size_t sum = 0;
        forEachL1([&](const mem::CacheBank &b) { sum += b.mshrInUse(); });
        return sum;
    };
    tl.addGauge("mshr_occupancy",
                [mshr_in_use] { return double(mshr_in_use()); });

    tl.addRatio(
        "dram_row_hit_rate",
        [this] {
            std::uint64_t sum = 0;
            for (auto &ch : channels_)
                sum += ch->rowHits();
            return sum;
        },
        [this] {
            std::uint64_t sum = 0;
            for (auto &ch : channels_)
                sum += ch->rowHits() + ch->rowMisses();
            return sum;
        });
    tl.addPerCycle("dram_access", [this] {
        std::uint64_t sum = 0;
        for (auto &ch : channels_)
            sum += ch->reads() + ch->writes();
        return sum;
    });
    auto dram_queue = [this] {
        std::size_t sum = 0;
        for (auto &ch : channels_)
            sum += ch->queueSize() + ch->inServiceSize();
        return sum;
    };
    tl.addGauge("dram_queue", [dram_queue] { return double(dram_queue()); });

    if (!nodes_.empty()) {
        tl.addGaugeArray("node_q1", nodes_.size(), [this](std::size_t i) {
            return double(nodes_[i]->q1Size());
        });
        tl.addGaugeArray("node_q2", nodes_.size(), [this](std::size_t i) {
            return double(nodes_[i]->q2Size());
        });
        tl.addGaugeArray("node_q3", nodes_.size(), [this](std::size_t i) {
            return double(nodes_[i]->q3Size());
        });
        tl.addGaugeArray("node_q4", nodes_.size(), [this](std::size_t i) {
            return double(nodes_[i]->q4Size());
        });
    }

    // Per-interval utilization tracks for the trace exporter: already
    // decimated to one point per timeline interval.
    tl.setSampleHook([this, mshr_in_use, dram_queue](Cycle now, Cycle) {
        if (!trace_)
            return;
        trace_->counterEvent("mshr_occupancy", now, // lint: trace-ok
                             double(mshr_in_use()));
        trace_->counterEvent("dram_queue", now, // lint: trace-ok
                             double(dram_queue()));
    });
}

void
GpuSystem::enableLatency(std::uint32_t sample_every)
{
    tlm_ = std::make_unique<stats::LatencyAttribution>(
        sys_.seed ^ 0x9e3779b97f4a7c15ull, sample_every);
    for (auto &core : cores_)
        core->setTelemetry(tlm_.get());
}

void
GpuSystem::enableTrace(stats::TraceExport *trace)
{
    if (trace_ && stats::tlsTraceSink() == trace_)
        stats::tlsTraceSink() = nullptr;
    trace_ = trace;
    if (trace_)
        stats::tlsTraceSink() = trace_;
}

void
GpuSystem::finishTelemetry()
{
    if (timeline_)
        timeline_->finish(cycle_);
    if (tlm_)
        tlm_->closeOpenSpans(cycle_);
}

RunMetrics
GpuSystem::metrics()
{
    RunMetrics rm;
    rm.cycles = cycle_ - statStart_;
    if (rm.cycles == 0)
        return rm;

    for (const auto &core : cores_)
        rm.instructions += core->instructions();
    rm.ipc = double(rm.instructions) / double(rm.cycles);

    // (DC-)L1 cache statistics.
    auto account_bank = [&](const mem::CacheBank &bank) {
        rm.l1Accesses += bank.accesses();
        rm.l1Misses += bank.misses();
        const double util =
            double(bank.accesses()) / double(rm.cycles);
        rm.maxL1PortUtil = std::max(rm.maxL1PortUtil, util);
    };
    forEachL1(account_bank);
    rm.l1MissRate = rm.l1Accesses
                        ? double(rm.l1Misses) / double(rm.l1Accesses)
                        : 0.0;

    rm.replicationRatio = tracker_->replicationRatio();
    rm.avgReplicas = tracker_->avgReplicas();

    // Latency.
    std::uint64_t lat_sum = 0;
    std::uint64_t lat_cnt = 0;
    for (const auto &core : cores_) {
        lat_sum += core->readLatencySum();
        lat_cnt += core->readsCompleted();
    }
    rm.avgReadLatency = lat_cnt ? double(lat_sum) / double(lat_cnt) : 0.0;

    // NoC link utilizations: the links into the cores, and the
    // memory-side links leaving the crossbars the L2 replies enter.
    const noc::Net &core_reply = *nets_[1];
    for (CoreId c = 0; c < sys_.numCores; ++c) {
        const noc::Net::Port &at = core_reply.ejectPort(c);
        rm.maxCoreReplyLinkUtil = std::max(
            rm.maxCoreReplyLinkUtil, at.xbar->outputUtilization(at.port));
    }
    for (const noc::Net::Member &m : nets_.back()->xbars()) {
        if (m.level != 2)
            continue;
        for (std::uint32_t o = 0; o < m.xbar->params().numOutputs; ++o)
            rm.maxMemReplyLinkUtil = std::max(
                rm.maxMemReplyLinkUtil, m.xbar->outputUtilization(o));
    }
    rm.noc1Flits = nocFlits(1);
    rm.noc2Flits = nocFlits(2);

    for (const auto &slice : slices_) {
        rm.l2Accesses += slice->bank().accesses();
        rm.l2Misses += slice->bank().misses();
    }
    for (const auto &ch : channels_) {
        rm.dramReads += ch->reads();
        rm.dramWrites += ch->writes();
    }
    return rm;
}

} // namespace dcl1::core
