#include "serve/serve_sim.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "common/log.hh"
#include "exec/determinism.hh"
#include "serve/arrival.hh"
#include "workload/app_catalog.hh"
#include "workload/synthetic.hh"

namespace dcl1::serve
{

namespace
{

constexpr CoreId kUnmapped = std::numeric_limits<CoreId>::max();

/// Seed salts: distinct deterministic streams per role.
constexpr std::uint64_t kArrivalSalt = 0x5eedA881Aa11ull;
constexpr std::uint64_t kMixSalt = 0x5eedD8A3ull;

std::uint64_t
jobSeed(std::uint64_t baseSeed, std::size_t id)
{
    // Job 0 must reuse the base seed verbatim so a single-job serve
    // run reproduces the classic single-app path bit for bit.
    return baseSeed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(id));
}

/**
 * Job-private address window: jobs are spaced 2^44 bytes apart, far
 * above the synthetic layout's highest segment (bypass, < 2^41), so
 * concurrent tenants never alias a cache line.
 */
Addr
jobAddrOffset(std::size_t id)
{
    return static_cast<Addr>(id) << 44;
}

double
exactPercentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double n = static_cast<double>(sorted.size());
    const double rank = std::ceil(p / 100.0 * n);
    std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

} // anonymous namespace

JobStream::JobStream(std::unique_ptr<workload::TraceSource> inner,
                     const std::vector<CoreId> &physCores,
                     std::uint32_t numPhysCores, Addr addrOffset)
    : inner_(std::move(inner)), localOf_(numPhysCores, kUnmapped),
      offset_(addrOffset)
{
    for (std::size_t i = 0; i < physCores.size(); ++i) {
        const CoreId c = physCores[i];
        if (c >= numPhysCores)
            panic("JobStream: physical core %u out of range", c);
        if (localOf_[c] != kUnmapped)
            panic("JobStream: core %u granted twice", c);
        localOf_[c] = static_cast<CoreId>(i);
    }
}

CoreId
JobStream::localOf(CoreId phys) const
{
    if (phys >= localOf_.size() || localOf_[phys] == kUnmapped)
        panic("JobStream: core %u is not part of this job", phys);
    return localOf_[phys];
}

void
JobStream::nextInstr(CoreId core, WarpId warp, Cycle now,
                     workload::WarpInstr &out)
{
    inner_->nextInstr(localOf(core), warp, now, out);
    if (offset_ == 0)
        return;
    for (std::uint8_t i = 0; i < out.numAccesses; ++i)
        out.accesses[i].addr += offset_;
}

std::uint32_t
JobStream::warpsPerCore(CoreId core) const
{
    return inner_->warpsPerCore(localOf(core));
}

ServeSim::ServeSim(const core::SystemConfig &sys,
                   const core::DesignConfig &design, const JobMix &mix,
                   const ServeOptions &opts)
    : sys_(sys), design_(design), mix_(mix), opts_(opts),
      gpu_(std::make_unique<core::GpuSystem>(sys_, design_)),
      sched_(makeScheduler(
          opts_.policy, sys_.numCores,
          static_cast<std::uint32_t>(std::max<std::size_t>(
              1, mix_.entries.size())))),
      coreMap_(sys_.numCores), statGroup_("serve"),
      latencyDist_(std::max<std::uint64_t>(1, opts_.horizon / 64), 64),
      queueDist_(std::max<std::uint64_t>(1, opts_.horizon / 64), 64)
{
    if (mix_.entries.empty() && opts_.trace.empty())
        fatal("serve: no job mix and no job trace");
    if (opts_.horizon == 0)
        fatal("serve: horizon must be nonzero");
    if (!(opts_.budgetScale > 0.0) || !std::isfinite(opts_.budgetScale))
        fatal("serve: budget scale must be finite and > 0 (got %g)",
              opts_.budgetScale);
    statGroup_.addScalar("jobs_offered", &statOffered_);
    statGroup_.addScalar("jobs_started", &statStarted_);
    statGroup_.addScalar("jobs_completed", &statCompleted_);
    statGroup_.addScalar("jobs_censored", &statCensored_);
    statGroup_.addDistribution("latency", &latencyDist_);
    statGroup_.addDistribution("queue_delay", &queueDist_);
    planArrivals();
}

ServeSim::~ServeSim() = default;

std::uint32_t
ServeSim::defaultCoresFor(const std::string &app) const
{
    if (opts_.defaultCores != 0)
        return std::min(opts_.defaultCores, sys_.numCores);
    // Footprint-class sizing: bigger working sets get more cores (and
    // with them more aggregate L1), mirroring how a CTA scheduler
    // spreads a larger grid.
    const auto &info = workload::appByName(app);
    std::uint32_t denom = 4;
    switch (info.footprint) {
      case workload::FootprintClass::Small:
        denom = 8;
        break;
      case workload::FootprintClass::Medium:
        denom = 4;
        break;
      case workload::FootprintClass::Large:
        denom = 2;
        break;
    }
    return std::max(1u, sys_.numCores / denom);
}

void
ServeSim::planArrivals()
{
    plan_.clear();
    const auto resolve = [&](const std::string &app, std::uint32_t cores,
                             std::uint64_t budget, std::uint32_t tenant,
                             Cycle arrival) {
        PlannedJob p;
        p.app = app;
        p.tenant = tenant;
        p.arrival = arrival;
        p.cores = cores != 0 ? std::min(cores, sys_.numCores)
                             : defaultCoresFor(app);
        std::uint64_t b = budget != 0
                              ? budget
                              : workload::appByName(app).nominalInstrBudget;
        if (opts_.budgetScale != 1.0) {
            const double scaled = double(b) * opts_.budgetScale;
            b = scaled >= double(std::numeric_limits<std::uint64_t>::max())
                    ? std::numeric_limits<std::uint64_t>::max()
                    : static_cast<std::uint64_t>(scaled);
        }
        p.budget = std::max<std::uint64_t>(1, b);
        plan_.push_back(std::move(p));
    };

    if (!opts_.trace.empty()) {
        for (const TraceJob &j : opts_.trace) {
            // Tenant = first mix entry with the same app, else 0: a
            // trace drives arrivals but inherits the mix's tenant
            // structure (and per-entry defaults) when one is given.
            std::uint32_t tenant = 0;
            std::uint32_t cores = j.cores;
            std::uint64_t budget = j.budget;
            for (std::size_t e = 0; e < mix_.entries.size(); ++e) {
                if (mix_.entries[e].app == j.app) {
                    tenant = static_cast<std::uint32_t>(e);
                    if (cores == 0)
                        cores = mix_.entries[e].cores;
                    if (budget == 0)
                        budget = mix_.entries[e].budget;
                    break;
                }
            }
            resolve(j.app, cores, budget, tenant, j.arrival);
        }
        return;
    }

    PoissonArrivals arrivals(opts_.lambdaJobsPerKcycle,
                             opts_.seed ^ kArrivalSalt);
    Rng draw(opts_.seed ^ kMixSalt);
    MixSampler sampler(mix_);
    Cycle t = 0;
    for (std::size_t i = 0; i < opts_.numJobs; ++i) {
        // Saturate: a job whose arrival does not fit never arrives,
        // like one past the horizon.
        const Cycle gap = arrivals.nextGap();
        t = gap > cycleNever - t ? cycleNever : t + gap;
        const std::size_t e = sampler.draw(draw);
        const MixEntry &entry = mix_.entries[e];
        resolve(entry.app, entry.cores, entry.budget,
                static_cast<std::uint32_t>(e), t);
    }
}

ServeSummary
ServeSim::run()
{
    // Jobs arriving at cycle 0 (trace-driven) bind before the first
    // tick, exactly like the classic path's construction-time source.
    admitArrivals(0);
    startJobs(0);
    gpu_->run(opts_.horizon, 0,
              [this](Cycle now) { return onCycle(now); });

    const Cycle end = gpu_->cycle();
    // Capture the odometers of still-running jobs while their streams
    // are still bound; the horizon censored them mid-flight.
    for (const RunningJob &r : running_) {
        std::uint64_t instrs = 0;
        for (const CoreId c : r.cores)
            instrs += gpu_->cores()[c]->sourceInstructions();
        outcomes_[r.id].instructions = instrs;
    }
    for (JobOutcome &o : outcomes_) {
        if (o.completed)
            continue;
        o.latency = end - o.arrival;
        o.queueDelay = o.started ? o.start - o.arrival : end - o.arrival;
        ++statCensored_;
        latencyDist_.sample(o.latency);
        queueDist_.sample(o.queueDelay);
        emitJobLog(o);
    }
    return summarize(end);
}

bool
ServeSim::onCycle(Cycle now)
{
    reapCompletions(now);
    admitArrivals(now);
    startJobs(now);
    return finished_ < plan_.size();
}

void
ServeSim::admitArrivals(Cycle now)
{
    while (nextPlanned_ < plan_.size() &&
           plan_[nextPlanned_].arrival <= now) {
        const PlannedJob &p = plan_[nextPlanned_];
        QueuedJob q;
        q.id = outcomes_.size();
        q.tenant = p.tenant;
        q.cores = p.cores;
        q.budget = p.budget;
        q.arrival = p.arrival;

        JobOutcome o;
        o.id = q.id;
        o.app = p.app;
        o.tenant = p.tenant;
        o.coresRequested = p.cores;
        o.budget = p.budget;
        o.arrival = p.arrival;
        outcomes_.push_back(std::move(o));
        waiting_.push_back(q);
        ++statOffered_;
        ++nextPlanned_;
    }
}

void
ServeSim::startJobs(Cycle now)
{
    while (!waiting_.empty()) {
        std::vector<CoreId> granted;
        const std::size_t idx = sched_->pick(waiting_, coreMap_, granted);
        if (idx == Scheduler::npos)
            break;
        const QueuedJob q = waiting_[idx];
        waiting_.erase(waiting_.begin() +
                       static_cast<std::ptrdiff_t>(idx));

        JobOutcome &o = outcomes_[q.id];
        o.started = true;
        o.start = now;
        o.queueDelay = now - q.arrival;
        o.coresGranted = static_cast<std::uint32_t>(granted.size());
        ++statStarted_;

        const auto &info = workload::appByName(o.app);
        auto inner = std::make_unique<workload::SyntheticSource>(
            core::effectiveWorkload(design_, info.params),
            static_cast<std::uint32_t>(granted.size()), sys_.lineBytes,
            jobSeed(opts_.seed, q.id));
        auto stream = std::make_unique<JobStream>(
            std::move(inner), granted, sys_.numCores,
            jobAddrOffset(q.id));
        for (const CoreId c : granted)
            gpu_->cores()[c]->bindSource(stream.get());

        RunningJob r;
        r.id = q.id;
        r.cores = granted;
        r.stream = std::move(stream);
        running_.push_back(std::move(r));
    }
}

void
ServeSim::reapCompletions(Cycle now)
{
    auto &cores = gpu_->cores();
    for (std::size_t i = 0; i < running_.size();) {
        RunningJob &r = running_[i];
        JobOutcome &o = outcomes_[r.id];

        if (!r.closing) {
            std::uint64_t instrs = 0;
            for (const CoreId c : r.cores)
                instrs += cores[c]->sourceInstructions();
            if (instrs >= o.budget) {
                for (const CoreId c : r.cores)
                    cores[c]->closeSource();
                r.closing = true;
            }
        }

        if (r.closing) {
            bool busy = false;
            for (const CoreId c : r.cores)
                busy = busy || cores[c]->busy();
            if (!busy) {
                std::uint64_t instrs = 0;
                for (const CoreId c : r.cores) {
                    instrs += cores[c]->sourceInstructions();
                    cores[c]->unbindSource();
                }
                coreMap_.release(r.cores);
                o.instructions = instrs;
                o.complete = now;
                o.completed = true;
                o.latency = now - o.arrival;
                ++finished_;
                ++statCompleted_;
                latencyDist_.sample(o.latency);
                queueDist_.sample(o.queueDelay);
                emitJobLog(o);
                running_.erase(running_.begin() +
                               static_cast<std::ptrdiff_t>(i));
                continue;
            }
        }
        ++i;
    }
}

void
ServeSim::emitJobLog(const JobOutcome &o)
{
    if (!jobLog_)
        return;
    std::ostringstream os;
    os << "{\"job\":" << o.id << ",\"app\":\"" << json::escape(o.app)
       << "\",\"tenant\":" << o.tenant
       << ",\"cores_req\":" << o.coresRequested
       << ",\"cores\":" << o.coresGranted << ",\"budget\":" << o.budget
       << ",\"instructions\":" << o.instructions
       << ",\"arrival\":" << o.arrival;
    if (o.started)
        os << ",\"start\":" << o.start << ",\"queue\":" << o.queueDelay;
    if (o.completed)
        os << ",\"complete\":" << o.complete;
    os << ",\"latency\":" << o.latency << ",\"status\":\""
       << (o.completed ? "completed" : (o.started ? "censored" : "queued"))
       << "\"}";
    jobLog_(os.str());
}

ServeSummary
ServeSim::summarize(Cycle endCycle)
{
    ServeSummary s;
    s.endCycle = endCycle;
    s.offered = outcomes_.size();

    std::uint32_t numTenants = 0;
    for (const JobOutcome &o : outcomes_)
        numTenants = std::max(numTenants, o.tenant + 1);
    std::vector<double> slowdownSum(numTenants, 0.0);
    std::vector<std::uint64_t> slowdownCnt(numTenants, 0);

    std::vector<double> lats;
    lats.reserve(outcomes_.size());
    double latSum = 0.0;
    double queueSum = 0.0;
    for (const JobOutcome &o : outcomes_) {
        if (o.started)
            ++s.started;
        lats.push_back(double(o.latency));
        latSum += double(o.latency);
        queueSum += double(o.queueDelay);
        if (!o.completed)
            continue;
        ++s.completed;
        const double service = double(o.complete - o.start);
        const double slowdown =
            service > 0.0 ? double(o.latency) / service : 1.0;
        slowdownSum[o.tenant] += slowdown;
        ++slowdownCnt[o.tenant];
    }
    s.censored = s.offered - s.completed;

    std::sort(lats.begin(), lats.end());
    if (!lats.empty()) {
        s.meanLatency = latSum / double(lats.size());
        s.meanQueueDelay = queueSum / double(lats.size());
        s.p50Latency = exactPercentile(lats, 50.0);
        s.p95Latency = exactPercentile(lats, 95.0);
        s.p99Latency = exactPercentile(lats, 99.0);
    }

    if (endCycle > 0) {
        s.offeredPerKcycle =
            double(s.offered) * 1000.0 / double(endCycle);
        s.completedPerKcycle =
            double(s.completed) * 1000.0 / double(endCycle);
    }

    // Jain index over per-tenant goodput efficiency 1/mean(slowdown):
    // scale-free, 1.0 when every tenant is slowed equally.
    std::vector<double> xs;
    for (std::uint32_t t = 0; t < numTenants; ++t) {
        if (slowdownCnt[t] == 0)
            continue;
        const double mean = slowdownSum[t] / double(slowdownCnt[t]);
        xs.push_back(mean > 0.0 ? 1.0 / mean : 1.0);
    }
    if (xs.size() >= 2) {
        double sum = 0.0;
        double sq = 0.0;
        for (const double x : xs) {
            sum += x;
            sq += x * x;
        }
        s.jainFairness =
            sq > 0.0 ? (sum * sum) / (double(xs.size()) * sq) : 1.0;
    }

    s.machine = gpu_->metrics();
    return s;
}

EquivalenceReport
checkSingleJobEquivalence(const core::SystemConfig &sys,
                          const core::DesignConfig &design,
                          const std::string &appName, Cycle cycles)
{
    EquivalenceReport rep;
    {
        core::GpuSystem classic(sys, design,
                                workload::appByName(appName).params);
        classic.run(cycles, 0);
        rep.classicDigest = exec::statDigest(classic);
    }
    {
        JobMix mix;
        MixEntry e;
        e.app = appName;
        e.cores = sys.numCores;
        mix.entries.push_back(e);

        ServeOptions opts;
        opts.policy = Policy::Fcfs;
        opts.horizon = cycles;
        opts.seed = sys.seed;
        TraceJob j;
        j.arrival = 0;
        j.app = appName;
        j.cores = sys.numCores;
        // A budget no run can reach: the job spans the whole horizon,
        // so every simulated cycle matches the classic run's.
        j.budget = std::numeric_limits<std::uint64_t>::max() / 2;
        opts.trace.push_back(j);

        ServeSim sim(sys, design, mix, opts);
        sim.run();
        rep.serveDigest = exec::statDigest(sim.gpu());
    }
    rep.match = rep.classicDigest == rep.serveDigest;
    return rep;
}

} // namespace dcl1::serve
