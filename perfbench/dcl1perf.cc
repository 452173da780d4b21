/**
 * @file
 * dcl1perf — the repository benchmark: host performance of dcl1sim,
 * end to end and layer by layer, on three pinned workloads.
 *
 *   dcl1perf --workload NAME --seed N --seconds S --trace 0|1
 *
 * One simulation at a time on one thread: a closed loop with a single
 * client. A repeat builds a GpuSystem for (design, app, seed), warms
 * the modelled caches for kWarmup cycles, then simulates kMeasure
 * cycles; statistics cover the measured interval only.
 *
 * --trace 0 (end to end; profiler off). Repeats until S seconds have
 *   passed and reports
 *     sim_cycles_per_s  simulated core cycles per host second over the
 *                       run loop (warmup + measure; construction
 *                       excluded), per repeat; the least-disturbed
 *                       tenth of repeats (see leastDisturbed());
 *     setup_s           GpuSystem construction on a fresh heap,
 *                       sampled kSetupSamplesPerRepeat times before
 *                       each repeat (see FreshHeapSetup); the median;
 *     peak_rss_mb       peak resident memory of this process.
 * --trace 1 (per layer). Alternates untraced and traced repeats (the
 *   prof::Profiler installed through prof::TlsGuard for the measured
 *   interval) for about half of S, joins the median traced repeat's
 *   phase self times with the simulated event counts, then runs the
 *   layer drivers (layer_drivers.hh).
 *
 * Correctness: every repeat's exec::statDigest must equal the first
 * repeat's, traced or not. At kPinnedSeed the digest and IPC must also
 * equal the values recorded in kWorkloads; a run at any other seed
 * simulates the pinned seed once more to check them. Each
 * mismatch is one failed operation. The model is not validated against
 * hardware, so no accuracy figure is reported: simulated results are
 * pinned by digest instead.
 *
 * stdout: a metric table, one detail JSON line (with the machine
 * fingerprint and the digests), and last the result line
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:
 *    {"value":..,"unit":..},..}}
 * Exit 0 with a result; 2 on bad arguments; 3 when the build is not a
 * Release build with DCL1_CHECK off (the benchmark never measures the
 * invariant checker).
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "core/gpu_system.hh"
#include "exec/determinism.hh"
#include "layer_drivers.hh"
#include "prof/prof.hh"
#include "workload/app_catalog.hh"

using namespace dcl1;
using perfbench::Cell;

namespace
{

using perfbench::HostClock;
using perfbench::median;
using perfbench::nsSince;

constexpr Cycle kWarmup = 5'000;
constexpr Cycle kMeasure = 20'000;
constexpr std::uint64_t kPinnedSeed = 1;
constexpr int kSetupSamplesPerRepeat = 2;
constexpr std::size_t kMinRepeats = 3;

/**
 * The workloads. Each stresses a different layer mix (host-time
 * shares from the profiler at 20k+5k cycles):
 *  - baseline-alexnet: private L1s + replication directory; core ~64 %,
 *    noc ~30 %, no DC-L1 node. Core/L1/directory changes show here,
 *    node changes must not.
 *  - dcl1-alexnet: the paper's Sh40+C10+Boost on the same app; noc
 *    ~48 %, node ~22 %, core ~18 %; 18.6 request allocations per cycle
 *    against 4.8 on baseline-alexnet. Crossbar, node and allocation
 *    changes show here.
 *  - baseline-stream: C-BLK streams (L1 miss rate ~1, L2 ~0.93,
 *    writes), DRAM ~45 % of host time. The miss/fill/evict path and
 *    DRAM; a hit-path gain that costs the miss path shows here.
 */
struct WorkloadSpec
{
    const char *name;
    const char *design;
    const char *app;
    std::uint64_t pinnedDigest; ///< statDigest at kPinnedSeed
    double pinnedIpc;           ///< IPC at kPinnedSeed
};

constexpr WorkloadSpec kWorkloads[] = {
    {"baseline-alexnet", "Baseline", "T-AlexNet", 0xc5f7ebc2c34bf900ull,
     5.2191},
    {"dcl1-alexnet", "Sh40+C10+Boost", "T-AlexNet", 0xc63758a333a56b2eull,
     20.21475},
    {"baseline-stream", "Baseline", "C-BLK", 0xed8257c53a351079ull,
     26.2744},
};

struct Args
{
    const WorkloadSpec *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "dcl1perf: %s\nusage: dcl1perf --workload NAME --seed N "
                 "--seconds S --trace 0|1\nworkloads:",
                 why);
    for (const WorkloadSpec &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *text, std::uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-' ||
        v > max)
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have[4] = {};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            for (const WorkloadSpec &w : kWorkloads)
                if (std::strcmp(w.name, value) == 0)
                    args.workload = &w;
            if (!args.workload)
                usage("unknown workload");
            have[0] = true;
        } else if (flag == "--seed") {
            args.seed = parseUnsigned("--seed", value, ~0ull);
            have[1] = true;
        } else if (flag == "--seconds") {
            args.seconds =
                double(parseUnsigned("--seconds", value, 3600));
            if (args.seconds < 1)
                usage("--seconds must be at least 1");
            have[2] = true;
        } else if (flag == "--trace") {
            args.trace = parseUnsigned("--trace", value, 1) == 1;
            have[3] = true;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        usage("all four flags are required");
    return args;
}

/** Empty when this binary may be measured; else why not. */
std::string
buildFlavorProblem()
{
    if (DCL1_CHECK_ENABLED)
        return "built with DCL1_CHECK=ON";
#ifndef NDEBUG
    return "built with assertions enabled (NDEBUG unset)";
#endif
    if (std::strcmp(DCL1PERF_BUILD_TYPE, "Release") != 0)
        return std::string("build type is '") + DCL1PERF_BUILD_TYPE +
               "', not Release";
    return "";
}

/**
 * The 90th percentile of @p rates: the rate with a tenth of the samples
 * at or above it. Other tenants of a shared host slow whole
 * multi-second stretches of a run by up to a third; the median moves
 * with how much of the run they cover, the least-disturbed tenth hardly
 * at all, and a faster simulator moves every sample alike.
 */
double
leastDisturbed(std::vector<double> rates)
{
    std::sort(rates.begin(), rates.end());
    return rates[rates.size() - 1 - rates.size() / 10];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

Cell
makeCell(const WorkloadSpec &w, std::uint64_t seed)
{
    Cell cell;
    cell.sys.seed = seed;
    cell.design = core::designByName(w.design);
    cell.app = workload::appByName(w.app).params;
    return cell;
}

/** One simulated repeat; the system stays alive for inspection. */
struct Repeat
{
    std::unique_ptr<core::GpuSystem> gpu;
    double warmupNs = 0.0;
    double measureNs = 0.0;
    std::uint64_t digest = 0;
    double ipc = 0.0;

    double
    simCyclesPerSec() const
    {
        return 1e9 * double(kWarmup + kMeasure) / (warmupNs + measureNs);
    }
};

/**
 * Build, warm and simulate one repeat. @p profiler (null: profiling
 * off) observes the measured interval only, so its phases and the
 * reset-at-warmup-end statistics cover the same cycles.
 */
Repeat
simulate(const Cell &cell, prof::Profiler *profiler)
{
    Repeat r;
    r.gpu = std::make_unique<core::GpuSystem>(cell.sys, cell.design,
                                              cell.app);
    const auto t1 = HostClock::now();
    r.gpu->run(0, kWarmup);
    const auto t2 = HostClock::now();
    {
        prof::TlsGuard guard(profiler);
        r.gpu->run(kMeasure, 0);
    }
    r.measureNs = nsSince(t2);
    r.warmupNs = std::chrono::duration<double, std::nano>(t2 - t1).count();
    r.digest = exec::statDigest(*r.gpu);
    r.ipc = r.gpu->metrics().ipc;
    return r;
}

bool
matchesPinned(const WorkloadSpec &w, const Repeat &r)
{
    return r.digest == w.pinnedDigest && r.ipc == w.pinnedIpc;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * The correctness gate. Every simulated repeat is one operation; it
 * fails when its digest differs from the run's first repeat, or, at
 * kPinnedSeed, from the recorded digest and IPC.
 */
class Verifier
{
  public:
    Verifier(const WorkloadSpec &w, std::uint64_t seed) : w_(w), seed_(seed)
    {
    }

    void
    check(const Repeat &r)
    {
        if (attempted_ == 0) {
            digest_ = r.digest;
            ipc_ = r.ipc;
        }
        bool ok = r.digest == digest_;
        if (seed_ == kPinnedSeed)
            ok = pinned(matchesPinned(w_, r)) && ok;
        record(ok);
    }

    /** At any other seed, simulate kPinnedSeed once to check it. */
    void
    checkPinnedSeed()
    {
        if (seed_ != kPinnedSeed)
            record(pinned(matchesPinned(
                w_, simulate(makeCell(w_, kPinnedSeed), nullptr))));
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Detail-line fields. */
    std::string
    json() const
    {
        return "\"digest\":\"" + hex(digest_) + "\",\"ipc\":" + num(ipc_) +
               ",\"pinned_ok\":" + (pinnedOk_ ? "true" : "false");
    }

  private:
    bool
    pinned(bool ok)
    {
        pinnedOk_ = pinnedOk_ && ok;
        return ok;
    }

    void
    record(bool ok)
    {
        ++attempted_;
        if (!ok)
            ++failed_;
    }

    const WorkloadSpec &w_;
    std::uint64_t seed_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t digest_ = 0;
    double ipc_ = 0.0;
    bool pinnedOk_ = true;
};

/**
 * This process's resident-set high-water mark (VmHWM). Not
 * getrusage's ru_maxrss, which survives execve and so would report the
 * launching process's footprint when that was larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    std::fprintf(stderr, "dcl1perf: no VmHWM in /proc/self/status\n");
    std::exit(1);
}

[[noreturn]] void
die(const char *what)
{
    std::fprintf(stderr, "dcl1perf: %s\n", what);
    std::exit(1);
}

/**
 * Times constructions of a cell's GpuSystem on a fresh heap. The
 * constructor forks a server before this process builds any system;
 * for each sampleNs() the server forks a child that builds one system
 * and sends its construction time back through a pipe. Every child so
 * starts from the server's heap, which never held a system, and pays
 * for first-touch page faults the way a fresh simulator process does.
 * A construction in a process that has already built and freed a
 * system reuses resident memory and runs several times faster, which
 * would hide work moved into set-up. Samples are taken between
 * repeats, because host noise comes in stretches longer than a batch
 * of constructions.
 */
class FreshHeapSetup
{
  public:
    explicit FreshHeapSetup(const Cell &cell)
    {
        int requests[2], results[2];
        if (pipe(requests) != 0 || pipe(results) != 0)
            die("pipe failed");
        pid_ = fork();
        if (pid_ < 0)
            die("fork failed");
        if (pid_ == 0) {
            close(requests[1]);
            close(results[0]);
            serve(cell, requests[0], results[1]);
        }
        close(requests[0]);
        close(results[1]);
        request_ = requests[1];
        result_ = results[0];
    }

    double
    sampleNs()
    {
        const char go = 1;
        double ns = 0.0;
        if (write(request_, &go, 1) != 1 ||
            read(result_, &ns, sizeof ns) != sizeof ns)
            die("set-up server failed");
        return ns;
    }

    /** Stops the server and waits until it has ended. */
    void
    finish()
    {
        close(request_);
        close(result_);
        int status = 0;
        if (waitpid(pid_, &status, 0) != pid_ || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0)
            die("set-up server failed");
    }

  private:
    [[noreturn]] static void
    serve(const Cell &cell, int requests, int results)
    {
        char go = 0;
        while (read(requests, &go, 1) == 1) {
            const pid_t pid = fork();
            if (pid == 0) {
                const auto t0 = HostClock::now();
                const core::GpuSystem gpu(cell.sys, cell.design, cell.app);
                const double ns = nsSince(t0);
                _exit(write(results, &ns, sizeof ns) == sizeof ns ? 0 : 1);
            }
            int status = 0;
            if (pid < 0 || waitpid(pid, &status, 0) != pid ||
                !WIFEXITED(status) || WEXITSTATUS(status) != 0)
                _exit(1);
        }
        _exit(0);
    }

    pid_t pid_ = -1;
    int request_ = -1;
    int result_ = -1;
};

/** Prints the table, the detail line, then the result line. */
void
report(const Args &args, const std::vector<Metric> &metrics,
       const Verifier &verifier, const std::string &detail)
{
    std::printf("dcl1perf %s seed=%llu trace=%d\n", args.workload->name,
                static_cast<unsigned long long>(args.seed),
                int(args.trace));
    for (const Metric &m : metrics)
        std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit);
    std::printf("{\"workload\":\"%s\",\"design\":\"%s\",\"app\":\"%s\","
                "\"seed\":%llu,\"trace\":%d,\"warmup_cycles\":%llu,"
                "\"measure_cycles\":%llu,%s,%s,\"fingerprint\":%s}\n",
                args.workload->name, args.workload->design,
                args.workload->app,
                static_cast<unsigned long long>(args.seed),
                int(args.trace), static_cast<unsigned long long>(kWarmup),
                static_cast<unsigned long long>(kMeasure),
                verifier.json().c_str(), detail.c_str(),
                bench::machineFingerprintJson().c_str());

    std::string out = "{\"correct\":";
    out += verifier.failed() == 0 ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(verifier.attempted());
    out += ",\"failed\":" + std::to_string(verifier.failed());
    out += ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ',';
        out += "\"" + metrics[i].name + "\":{\"value\":" +
               num(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit +
               "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/** JSON array of @p values. */
std::string
jsonArray(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += ',';
        out += num(values[i]);
    }
    return out + "]";
}

void
runEndToEnd(const Args &args)
{
    const WorkloadSpec &w = *args.workload;
    const Cell cell = makeCell(w, args.seed);
    Verifier verifier(w, args.seed);

    FreshHeapSetup setup(cell);
    std::vector<double> setup_ns;
    std::vector<double> rates;
    const auto start = HostClock::now();
    while (rates.size() < kMinRepeats ||
           nsSince(start) < args.seconds * 1e9) {
        for (int i = 0; i < kSetupSamplesPerRepeat; ++i)
            setup_ns.push_back(setup.sampleNs());
        const Repeat r = simulate(cell, nullptr);
        verifier.check(r);
        rates.push_back(r.simCyclesPerSec());
    }
    setup.finish();

    // Read before the seed-1 check adds a second configuration's
    // allocations to the high-water mark.
    const double peak_rss_mb = peakRssMb();
    verifier.checkPinnedSeed();

    const std::vector<Metric> metrics = {
        {"sim_cycles_per_s", leastDisturbed(rates), "1/s"},
        {"setup_s", median(setup_ns) / 1e9, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    report(args, metrics, verifier,
           "\"sim_cycles_per_s_samples\":" + jsonArray(rates) +
               ",\"setup_ns_samples\":" + jsonArray(setup_ns));
}

/** Simulated event counts of a finished repeat's measured interval. */
struct Counts
{
    double cycles = 0, instructions = 0, coreTicks = 0;
    double flits = 0, packets = 0, xbarTicks = 0, xbarInputs = 0;
    double nodeAccesses = 0, l1Accesses = 0, l1Misses = 0;
    double l2Accesses = 0, l2Misses = 0;
    double dramCommands = 0, dramTicks = 0;
    double trackerMisses = 0, replicationRatio = 0;
};

Counts
countsOf(core::GpuSystem &gpu)
{
    const core::RunMetrics rm = gpu.metrics();
    const core::SystemConfig &sys = gpu.sysConfig();
    Counts c;
    c.cycles = double(rm.cycles);
    c.instructions = double(rm.instructions);
    c.coreTicks = c.cycles * sys.numCores;
    c.l1Accesses = double(rm.l1Accesses);
    c.l1Misses = double(rm.l1Misses);
    c.l2Accesses = double(rm.l2Accesses);
    c.l2Misses = double(rm.l2Misses);
    c.dramCommands = double(rm.dramReads + rm.dramWrites);
    c.dramTicks = c.cycles * sys.numChannels;
    c.trackerMisses = double(gpu.tracker().totalMisses());
    c.replicationRatio = rm.replicationRatio;
    for (const auto &node : gpu.nodes())
        c.nodeAccesses += double(node->cache().accesses());

    // Crossbars register "flits" and "packets"; no other component
    // does, so summing those leaves of the stat dump covers every
    // crossbar of every topology.
    std::ostringstream dump;
    gpu.dumpStats(dump);
    std::istringstream lines(dump.str());
    std::string path;
    double value = 0;
    auto ends_with = [](const std::string &s, const char *tail) {
        const std::size_t n = std::strlen(tail);
        return s.size() >= n && s.compare(s.size() - n, n, tail) == 0;
    };
    while (lines >> path >> value) {
        if (ends_with(path, ".flits"))
            c.flits += value;
        else if (ends_with(path, ".packets"))
            c.packets += value;
    }
    for (const core::XbarGeometry &g :
         core::crossbarInventory(gpu.designConfig(), sys)) {
        c.xbarTicks += c.cycles * g.count;
        c.xbarInputs += double(g.count) * g.numInputs;
    }
    return c;
}

void
runTraced(const Args &args)
{
    const WorkloadSpec &w = *args.workload;
    const Cell cell = makeCell(w, args.seed);
    Verifier verifier(w, args.seed);

    std::vector<double> plain_ns;
    std::vector<double> traced_ns;
    std::vector<prof::Report> reports;
    std::unique_ptr<core::GpuSystem> last;

    // Interleave, alternating which side goes first, so host drift
    // lands on both sides of trace.overhead_ratio. The profiler never
    // changes results: traced digests must equal untraced ones.
    const auto start = HostClock::now();
    for (std::size_t pair = 0;
         pair < 2 || nsSince(start) < args.seconds * 0.5e9; ++pair) {
        for (int side = 0; side < 2; ++side) {
            if ((side == 0) != (pair % 2 == 0)) {
                const Repeat r = simulate(cell, nullptr);
                verifier.check(r);
                plain_ns.push_back(r.measureNs);
                continue;
            }
            prof::Profiler profiler;
            Repeat r = simulate(cell, &profiler);
            verifier.check(r);
            traced_ns.push_back(r.measureNs);
            reports.push_back(profiler.report());
            reports.back().wallNs = static_cast<std::uint64_t>(r.measureNs);
            last = std::move(r.gpu);
        }
    }
    verifier.checkPinnedSeed();

    // Join the median traced repeat's phase self times with the event
    // counts, which every repeat of the cell shares.
    std::sort(reports.begin(), reports.end(),
              [](const prof::Report &a, const prof::Report &b) {
                  return a.wallNs < b.wallNs;
              });
    const prof::Report &rep = reports[reports.size() / 2];
    double self[prof::kPhaseCount] = {};
    for (const prof::ReportNode &n : rep.nodes)
        self[static_cast<std::size_t>(n.phase)] += double(n.selfNs);
    auto self_per = [&](prof::Phase p, double events) {
        return ratio(self[static_cast<std::size_t>(p)], events);
    };
    auto counter_per = [&](prof::Counter k, double events) {
        return ratio(double(rep.counters[static_cast<std::size_t>(k)]),
                     events);
    };
    const Counts c = countsOf(*last);

    // Layer drivers, fed from the same cell and the traced NoC load.
    const mem::CacheBankParams geometry =
        last->nodes().empty() ? last->cores().front()->l1()->params()
                              : last->nodes().front()->cache().params();
    const double instr_ns = perfbench::timeWorkloadNsPerInstr(cell);
    const perfbench::L1Timing l1 =
        perfbench::timeL1AndTracker(cell, geometry);
    const double xbar_ns = perfbench::timeXbarNsPerTick(
        cell, ratio(c.flits, c.xbarInputs * c.cycles),
        std::max(1.0, ratio(c.flits, c.packets)));

    using prof::Counter;
    using prof::Phase;
    const std::vector<Metric> metrics = {
        {"gpucore.ns_per_core_cycle", self_per(Phase::Core, c.coreTicks),
         "ns"},
        {"gpucore.instructions", c.instructions, "count"},
        {"noc.ns_per_flit", self_per(Phase::Noc, c.flits), "ns"},
        {"noc.flits", c.flits, "count"},
        {"noc.idle_tick_ratio",
         counter_per(Counter::QuiescentXbar, c.xbarTicks), "ratio"},
        {"core.node.ns_per_access", self_per(Phase::Node, c.nodeAccesses),
         "ns"},
        {"mem.l2.ns_per_access", self_per(Phase::L2, c.l2Accesses), "ns"},
        {"mem.l2.accesses", c.l2Accesses, "count"},
        {"mem.l2.miss_ratio", ratio(c.l2Misses, c.l2Accesses), "ratio"},
        {"mem.dram.ns_per_cmd", self_per(Phase::Dram, c.dramCommands),
         "ns"},
        {"mem.dram.commands", c.dramCommands, "count"},
        {"mem.dram.idle_tick_ratio",
         counter_per(Counter::QuiescentDram, c.dramTicks), "ratio"},
        {"mem.request.allocs_per_cycle",
         counter_per(Counter::MemReqAlloc, c.cycles), "1/cycle"},
        {"core.loop.ns_per_cycle", self_per(Phase::Run, c.cycles), "ns"},
        {"mem.l1.accesses", c.l1Accesses, "count"},
        {"mem.l1.miss_ratio", ratio(c.l1Misses, c.l1Accesses), "ratio"},
        {"mem.tracker.misses", c.trackerMisses, "count"},
        {"mem.tracker.replication_ratio", c.replicationRatio, "ratio"},
        {"trace.coverage", rep.coverage(), "ratio"},
        {"trace.overhead_ratio", ratio(median(traced_ns), median(plain_ns)),
         "ratio"},
        {"workload.ns_per_instr", instr_ns, "ns"},
        {"mem.l1.ns_per_access", l1.l1NsPerAccess, "ns"},
        {"mem.tracker.ns_per_event", l1.trackerNsPerEvent, "ns"},
        {"noc.xbar_ns_per_tick", xbar_ns, "ns"},
    };
    report(args, metrics, verifier,
           "\"pairs\":" + std::to_string(plain_ns.size()) +
               ",\"driver_l1_accesses\":" + std::to_string(l1.accesses) +
               ",\"driver_tracker_events\":" +
               std::to_string(l1.trackerEvents) +
               ",\"profile\":" + rep.json());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (const std::string problem = buildFlavorProblem(); !problem.empty()) {
        std::fprintf(stderr,
                     "dcl1perf: refusing to measure this binary: %s; "
                     "configure with -DCMAKE_BUILD_TYPE=Release "
                     "-DDCL1_CHECK=OFF\n",
                     problem.c_str());
        return 3;
    }
    if (args.trace)
        runTraced(args);
    else
        runEndToEnd(args);
    return 0;
}
