/** @file Tests for the multi-tenant serving layer. */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/log.hh"
#include "core/design.hh"
#include "core/experiment.hh"
#include "exec/determinism.hh"
#include "serve/arrival.hh"
#include "serve/job_mix.hh"
#include "serve/scheduler.hh"
#include "serve/serve_sim.hh"
#include "workload/app_catalog.hh"

namespace
{

using namespace dcl1;
using namespace dcl1::serve;

// ---------------------------------------------------------------- arrivals

TEST(Arrival, PoissonSameSeedSameGaps)
{
    PoissonArrivals a(0.7, 42);
    PoissonArrivals b(0.7, 42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.nextGap(), b.nextGap());
}

TEST(Arrival, PoissonSeedChangesGaps)
{
    PoissonArrivals a(0.7, 1);
    PoissonArrivals b(0.7, 2);
    int diff = 0;
    for (int i = 0; i < 200; ++i)
        if (a.nextGap() != b.nextGap())
            ++diff;
    EXPECT_GT(diff, 100);
}

TEST(Arrival, PoissonEmpiricalRate)
{
    // lambda = 2 jobs/kcycle -> mean gap 500 cycles. Over 20k draws
    // the sample mean has standard error 500/sqrt(20000) ~ 3.5, so
    // +/-15 cycles is a > 4-sigma acceptance band; rounding to whole
    // cycles is bias-free to well under one cycle.
    PoissonArrivals a(2.0, 9);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += double(a.nextGap());
    const double mean = sum / n;
    EXPECT_NEAR(mean, 500.0, 15.0);
    EXPECT_EQ(a.meanGapCycles(), 500.0);
}

TEST(Arrival, PoissonRejectsNonPositiveRate)
{
    SimErrorTrap trap;
    EXPECT_THROW(PoissonArrivals(0.0, 1), SimAbort);
    EXPECT_THROW(PoissonArrivals(-1.0, 1), SimAbort);
    EXPECT_THROW(PoissonArrivals(std::nan(""), 1), SimAbort);
    EXPECT_THROW(PoissonArrivals(HUGE_VAL, 1), SimAbort);
    // 1000 / 1e-320 overflows: the mean gap would be infinite.
    EXPECT_THROW(PoissonArrivals(1e-320, 1), SimAbort);
    // A finite rate whose gaps do not fit in a Cycle saturates: such a
    // job never arrives, instead of an undefined conversion.
    PoissonArrivals slow(1e-300, 1);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(slow.nextGap(), cycleNever);
}

// --------------------------------------------------------------- mix/trace

TEST(JobMixTest, ParseJsonMix)
{
    const JobMix mix = parseMixJson(
        "[{\"app\": \"T-AlexNet\", \"weight\": 3, \"cores\": 8,"
        "  \"budget\": 1000},\n"
        " {\"app\": \"C-BFS\"}]",
        "test");
    ASSERT_EQ(mix.entries.size(), 2u);
    EXPECT_EQ(mix.entries[0].app, "T-AlexNet");
    EXPECT_DOUBLE_EQ(mix.entries[0].weight, 3.0);
    EXPECT_EQ(mix.entries[0].cores, 8u);
    EXPECT_EQ(mix.entries[0].budget, 1000u);
    EXPECT_EQ(mix.entries[1].app, "C-BFS");
    EXPECT_DOUBLE_EQ(mix.entries[1].weight, 1.0);
    EXPECT_EQ(mix.entries[1].cores, 0u);
    EXPECT_EQ(mix.entries[1].budget, 0u);
}

TEST(JobMixTest, ParseRejectsGarbage)
{
    SimErrorTrap trap;
    // Unknown key, unknown app, non-positive weight, trailing junk.
    EXPECT_THROW(parseMixJson("[{\"app\":\"T-AlexNet\",\"zap\":1}]", "t"),
                 SimAbort);
    EXPECT_THROW(parseMixJson("[{\"app\":\"NoSuchApp\"}]", "t"), SimAbort);
    EXPECT_THROW(
        parseMixJson("[{\"app\":\"T-AlexNet\",\"weight\":0}]", "t"),
        SimAbort);
    EXPECT_THROW(parseMixJson("[{\"app\":\"T-AlexNet\"}] x", "t"),
                 SimAbort);
    // cores above dcl1serve's limit of 4096 must not wrap: 2^32 would
    // read as 0, the serving default.
    const std::string head = "[{\"app\":\"T-AlexNet\",\"cores\":";
    EXPECT_EQ(parseMixJson(head + "4096}]", "t").entries[0].cores, 4096u);
    for (const char *cores : {"4097", "4294967296", "4294967297"})
        EXPECT_THROW(parseMixJson(head + cores + "}]", "t"), SimAbort)
            << cores;
    // Strict JSON: numbers, escapes, separators, one array.
    const std::string weight = "[{\"app\":\"T-AlexNet\",\"weight\":";
    for (const char *w : {"+3", ".5", "1.", "1e999", "\"2\""})
        EXPECT_THROW(parseMixJson(weight + w + "}]", "t"), SimAbort) << w;
    EXPECT_DOUBLE_EQ(parseMixJson(weight + "0.5}]", "t").entries[0].weight,
                     0.5);
    for (const char *bad :
         {"[{\"app\":\"T-AlexNet\"},]", "[{\"app\":\"T-\\u0141lexNet\"}]",
          "[{\"app\":\"T-AlexNet\",\"app\":\"C-BFS\"}]",
          "{\"app\":\"T-AlexNet\"}", "[]"})
        EXPECT_THROW(parseMixJson(bad, "t"), SimAbort) << bad;
}

TEST(JobMixTest, AppListAndSampler)
{
    const JobMix mix = mixFromAppList("T-AlexNet,C-BFS");
    ASSERT_EQ(mix.entries.size(), 2u);
    MixSampler sampler(mix);
    Rng rng(5);
    int counts[2] = {0, 0};
    for (int i = 0; i < 2000; ++i)
        ++counts[sampler.draw(rng)];
    // Equal weights: both entries drawn, roughly evenly.
    EXPECT_GT(counts[0], 800);
    EXPECT_GT(counts[1], 800);
}

TEST(JobTraceTest, ParseAndValidate)
{
    const std::vector<TraceJob> jobs = parseJobTrace(
        "{\"cycle\": 0, \"app\": \"T-AlexNet\", \"cores\": 4}\n"
        "{\"cycle\": 100, \"app\": \"C-BFS\", \"budget\": 500}\n",
        "test");
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].arrival, 0u);
    EXPECT_EQ(jobs[0].cores, 4u);
    EXPECT_EQ(jobs[1].arrival, 100u);
    EXPECT_EQ(jobs[1].budget, 500u);

    SimErrorTrap trap;
    EXPECT_THROW(parseJobTrace("{\"cycle\":50,\"app\":\"T-AlexNet\"}\n"
                               "{\"cycle\":10,\"app\":\"T-AlexNet\"}\n",
                               "t"),
                 SimAbort); // arrivals must be non-decreasing
    EXPECT_THROW(parseJobTrace("{\"app\":\"T-AlexNet\"}\n", "t"),
                 SimAbort); // missing cycle
    EXPECT_THROW(parseJobTrace("{\"cycle\":0,\"app\":\"T-AlexNet\","
                               "\"cores\":4294967298}\n",
                               "t"),
                 SimAbort); // would wrap to 2 cores
    // JSONL: one object per non-blank line, integer cycles.
    EXPECT_EQ(parseJobTrace("\n{\"cycle\":0,\"app\":\"T-AlexNet\"}\n \n",
                            "t")
                  .size(),
              1u);
    for (const char *bad :
         {"{\"cycle\":0,\"app\":\"T-AlexNet\"} {\"cycle\":1,"
          "\"app\":\"C-BFS\"}\n",
          "{\"cycle\":0,\n\"app\":\"T-AlexNet\"}\n",
          "{\"cycle\":1e3,\"app\":\"T-AlexNet\"}\n",
          "{\"cycle\":1000000000000000001,\"app\":\"T-AlexNet\"}\n",
          "[{\"cycle\":0,\"app\":\"T-AlexNet\"}]\n"})
        EXPECT_THROW(parseJobTrace(bad, "t"), SimAbort) << bad;
}

// ---------------------------------------------------------------- catalog

TEST(CatalogMetadata, EveryAppHasServingMetadata)
{
    for (const auto &app : workload::appCatalog()) {
        // The nominal budget is clamped to a sane serving range and
        // derived deterministically from the app's own parameters.
        EXPECT_GE(app.nominalInstrBudget, 50'000u) << app.params.name;
        EXPECT_LE(app.nominalInstrBudget, 1'000'000u) << app.params.name;
        EXPECT_EQ(app.nominalInstrBudget,
                  workload::nominalInstrBudgetFor(app.params))
            << app.params.name;
        EXPECT_EQ(app.footprint, workload::footprintClassFor(app.params))
            << app.params.name;
        // Name mapping is total and stable.
        const char *n = workload::footprintClassName(app.footprint);
        EXPECT_TRUE(std::string(n) == "small" ||
                    std::string(n) == "medium" ||
                    std::string(n) == "large");
    }
}

TEST(CatalogMetadata, FootprintClassBoundaries)
{
    workload::WorkloadParams p;
    p.sharedLines = 1000;
    p.privateLines = 500;
    EXPECT_EQ(workload::footprintClassFor(p),
              workload::FootprintClass::Small);
    p.privateLines = 4000;
    EXPECT_EQ(workload::footprintClassFor(p),
              workload::FootprintClass::Medium);
    p.privateLines = 8000;
    EXPECT_EQ(workload::footprintClassFor(p),
              workload::FootprintClass::Large);
}

// -------------------------------------------------------------- scheduler

TEST(SchedulerTest, CoreMapClaimRelease)
{
    CoreMap map(8);
    EXPECT_EQ(map.freeCount(), 8u);
    const std::vector<CoreId> got = map.claimLowest(3, 0, 8);
    EXPECT_EQ(got, (std::vector<CoreId>{0, 1, 2}));
    EXPECT_EQ(map.freeCount(), 5u);
    EXPECT_EQ(map.freeInRange(0, 4), 1u);
    map.release(got);
    EXPECT_EQ(map.freeCount(), 8u);
}

TEST(SchedulerTest, FcfsIsHeadOfLine)
{
    auto sched = makeScheduler(Policy::Fcfs, 8, 1);
    CoreMap map(8);
    map.claimLowest(6, 0, 8); // only 2 free
    std::vector<QueuedJob> waiting(2);
    waiting[0].id = 0;
    waiting[0].cores = 4; // head does not fit
    waiting[1].id = 1;
    waiting[1].cores = 1; // would fit, but FCFS must not backfill
    std::vector<CoreId> out;
    EXPECT_EQ(sched->pick(waiting, map, out), Scheduler::npos);
}

TEST(SchedulerTest, SjfBackfillsSmallestThatFits)
{
    auto sched = makeScheduler(Policy::Sjf, 8, 1);
    CoreMap map(8);
    map.claimLowest(6, 0, 8); // only 2 free
    std::vector<QueuedJob> waiting(3);
    waiting[0].id = 0;
    waiting[0].cores = 4;
    waiting[0].budget = 10; // smallest budget but does not fit
    waiting[1].id = 1;
    waiting[1].cores = 2;
    waiting[1].budget = 500;
    waiting[2].id = 2;
    waiting[2].cores = 1;
    waiting[2].budget = 90; // smallest that fits
    std::vector<CoreId> out;
    EXPECT_EQ(sched->pick(waiting, map, out), 2u);
    EXPECT_EQ(out.size(), 1u);
}

TEST(SchedulerTest, RoundRobinPartitionsTenants)
{
    auto sched = makeScheduler(Policy::RoundRobin, 8, 2);
    CoreMap map(8);
    std::vector<QueuedJob> waiting(2);
    waiting[0].id = 0;
    waiting[0].tenant = 0;
    waiting[0].cores = 8; // clamped to the 4-core partition
    waiting[1].id = 1;
    waiting[1].tenant = 1;
    waiting[1].cores = 2;
    std::vector<CoreId> out;
    ASSERT_EQ(sched->pick(waiting, map, out), 0u);
    EXPECT_EQ(out, (std::vector<CoreId>{0, 1, 2, 3})); // tenant 0's cores
    std::vector<QueuedJob> rest(waiting.begin() + 1, waiting.end());
    ASSERT_EQ(sched->pick(rest, map, out), 0u);
    EXPECT_EQ(out, (std::vector<CoreId>{4, 5})); // tenant 1's partition
}

TEST(SchedulerTest, PolicyNamesRoundTrip)
{
    EXPECT_EQ(policyByName("fcfs"), Policy::Fcfs);
    EXPECT_EQ(policyByName("sjf"), Policy::Sjf);
    EXPECT_EQ(policyByName("rr"), Policy::RoundRobin);
    EXPECT_STREQ(policyName(Policy::Sjf), "sjf");
    SimErrorTrap trap;
    EXPECT_THROW(policyByName("lifo"), SimAbort);
}

// ---------------------------------------------------------------- serving

JobMix
smallMix()
{
    JobMix mix;
    MixEntry a;
    a.app = "T-AlexNet";
    a.cores = 16;
    a.budget = 2000;
    mix.entries.push_back(a);
    MixEntry b;
    b.app = "C-BFS";
    b.cores = 8;
    b.budget = 1500;
    mix.entries.push_back(b);
    return mix;
}

TEST(ServeSim, CompletesUnderLowLoad)
{
    core::SystemConfig sys;
    ServeOptions opts;
    opts.policy = Policy::Fcfs;
    opts.lambdaJobsPerKcycle = 0.5;
    opts.numJobs = 10;
    opts.horizon = 400'000;
    opts.seed = 3;
    ServeSim sim(sys, core::baselineDesign(), smallMix(), opts);
    const ServeSummary s = sim.run();

    EXPECT_EQ(s.offered, 10u);
    EXPECT_EQ(s.completed, 10u);
    EXPECT_EQ(s.censored, 0u);
    EXPECT_LT(s.endCycle, opts.horizon); // early exit once all done
    EXPECT_GT(s.machine.instructions, 0u);
    for (const JobOutcome &o : sim.outcomes()) {
        EXPECT_TRUE(o.completed);
        EXPECT_GE(o.start, o.arrival);
        EXPECT_GT(o.complete, o.start);
        EXPECT_EQ(o.latency, o.complete - o.arrival);
        EXPECT_EQ(o.queueDelay, o.start - o.arrival);
        EXPECT_GE(o.instructions, o.budget); // budget reached
        EXPECT_GT(o.coresGranted, 0u);
    }
}

TEST(ServeSim, SameSeedByteIdenticalJobLog)
{
    core::SystemConfig sys;
    ServeOptions opts;
    opts.policy = Policy::Sjf;
    opts.lambdaJobsPerKcycle = 1.5;
    opts.numJobs = 8;
    opts.horizon = 150'000;
    opts.seed = 17;

    auto runOnce = [&](std::vector<std::string> &log) {
        ServeSim sim(sys, core::baselineDesign(), smallMix(), opts);
        sim.setJobLogSink(
            [&log](const std::string &line) { log.push_back(line); });
        sim.run();
        return exec::statDigest(sim.gpu());
    };
    std::vector<std::string> log_a, log_b;
    const std::uint64_t digest_a = runOnce(log_a);
    const std::uint64_t digest_b = runOnce(log_b);

    ASSERT_FALSE(log_a.empty());
    EXPECT_EQ(log_a, log_b);
    EXPECT_EQ(digest_a, digest_b);
}

TEST(ServeSim, SingleJobMatchesClassicSingleApp)
{
    core::SystemConfig sys;
    sys.seed = 5;
    const EquivalenceReport base = checkSingleJobEquivalence(
        sys, core::baselineDesign(), "T-AlexNet", 3000);
    EXPECT_TRUE(base.match)
        << "classic " << base.classicDigest << " serve "
        << base.serveDigest;
    const EquivalenceReport dcl1 = checkSingleJobEquivalence(
        sys, core::clusteredDcl1(40, 10, true), "T-AlexNet", 3000);
    EXPECT_TRUE(dcl1.match)
        << "classic " << dcl1.classicDigest << " serve "
        << dcl1.serveDigest;
}

TEST(ServeSim, P99MonotoneInOfferedLoad)
{
    core::SystemConfig sys;
    JobMix mix = smallMix();
    double prev = 0.0;
    for (const double lambda : {0.05, 0.5, 4.0}) {
        ServeOptions opts;
        opts.policy = Policy::Fcfs;
        opts.lambdaJobsPerKcycle = lambda;
        opts.numJobs = 12;
        opts.horizon = 400'000;
        opts.seed = 23;
        ServeSim sim(sys, core::baselineDesign(), mix, opts);
        const ServeSummary s = sim.run();
        EXPECT_GE(s.p99Latency, prev) << "lambda " << lambda;
        prev = s.p99Latency;
    }
}

TEST(ServeSim, TraceDrivenArrivals)
{
    core::SystemConfig sys;
    ServeOptions opts;
    opts.horizon = 200'000;
    opts.seed = 2;
    TraceJob j;
    j.app = "T-AlexNet";
    j.cores = 8;
    j.budget = 1000;
    j.arrival = 0;
    opts.trace.push_back(j);
    j.arrival = 50;
    opts.trace.push_back(j);
    ServeSim sim(sys, core::baselineDesign(), smallMix(), opts);
    const ServeSummary s = sim.run();
    EXPECT_EQ(s.offered, 2u);
    EXPECT_EQ(s.completed, 2u);
    // Both fit side by side: the second job must not wait for the
    // first (16 free cores remain).
    EXPECT_EQ(sim.outcomes()[1].queueDelay, 0u);
}

TEST(ServeSim, ArrivalsPastTheLastCycleNeverArrive)
{
    // Gaps of ~1e303 cycles: like jobs past the horizon, neither job
    // is offered.
    core::SystemConfig sys;
    ServeOptions opts;
    opts.lambdaJobsPerKcycle = 1e-300;
    opts.numJobs = 2;
    opts.horizon = 1000;
    ServeSim sim(sys, core::baselineDesign(), smallMix(), opts);
    const ServeSummary s = sim.run();
    EXPECT_EQ(s.offered, 0u);
    EXPECT_EQ(s.endCycle, opts.horizon);
}

TEST(ServeSim, RejectsNonPositiveBudgetScale)
{
    SimErrorTrap trap;
    const core::SystemConfig sys;
    for (const double scale : {std::nan(""), -3.0, 0.0, HUGE_VAL}) {
        ServeOptions opts;
        opts.budgetScale = scale;
        EXPECT_THROW(ServeSim(sys, core::baselineDesign(), smallMix(), opts),
                     SimAbort)
            << scale;
    }
}

} // anonymous namespace
