/**
 * @file
 * dcl1serve — multi-tenant serving driver: open-loop kernel-job
 * traffic over one shared GPU, tail-latency and fairness metrics.
 *
 *   dcl1serve --apps=mix.json --lambda=0.5 --policy=fcfs --seed=7
 *   dcl1serve --apps=T-AlexNet,C-BFS --lambda=0.2,0.5,1.0,2.0 \
 *             --policy=fcfs,sjf,rr --design=Baseline,Sh40+C10+Boost \
 *             --csv=sweep.csv
 *   dcl1serve --equivalence-check --app=T-AlexNet --design=Baseline
 *
 * Options:
 *   --apps=X          job mix: a .json mix file (array of
 *                     {"app","weight","cores","budget"} objects) or a
 *                     comma list of catalog apps (equal weights)
 *   --arrivals=FILE   trace-driven arrivals (JSONL of {"cycle","app"
 *                     [,"cores","budget"]}); disables --lambda
 *   --lambda=R[,R..]  offered load sweep, jobs per 1000 cycles
 *   --policy=P[,P..]  fcfs | sjf | rr
 *   --design=D[,D..]  design presets (see dcl1run --list-designs)
 *   --num-jobs=N      offered jobs per cell        (default 100)
 *   --horizon=N       hard cycle cap               (default 1000000)
 *   --seed=N          arrival/mix/job-stream seed  (default 1)
 *   --cores=N --slices=N --channels=N              platform scaling
 *   --default-cores=N cores per job when the mix doesn't say
 *                     (default: footprint-class sizing)
 *   --budget-scale=X  scale every job's instruction budget
 *   --job-log=FILE    per-job JSONL (single cell only)
 *   --job-log-dir=DIR per-job JSONL per cell, <design>_<policy>_<L>.jsonl
 *   --csv=FILE        summary CSV, one row per cell (atomic)
 *   --jobs=N          worker threads (default: hardware)
 *   --equivalence-check  verify one serve job granted every core
 *                     reproduces the classic path (--app, --design,
 *                     --cycles, --seed); exit 2 on digest mismatch
 *   --help            usage + the exit-code contract
 *
 * Determinism: the same flags and seed give byte-identical stdout,
 * CSV, and job logs for any --jobs value — job-log lines are emitted
 * at simulated completion cycles, summary rows in cell order after
 * the batch. Host wall time goes to stderr only.
 */

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/env.hh"
#include "common/log.hh"
#include "core/experiment.hh"
#include "core/gpu_system.hh"
#include "exec/atomic_file.hh"
#include "exec/exit_codes.hh"
#include "exec/job_runner.hh"
#include "exec/result_sink.hh"
#include "serve/serve_sim.hh"
#include "stats/stats.hh"
#include "workload/app_catalog.hh"

using namespace dcl1;

namespace
{

struct Options
{
    std::string apps = "T-AlexNet";
    std::string arrivalsFile;
    std::string lambdas = "0.5";
    std::string policies = "fcfs";
    std::string designs = "Baseline";
    std::size_t numJobs = 100;
    Cycle horizon = 1'000'000;
    std::uint64_t seed = 1;
    std::uint32_t cores = 80;
    std::uint32_t slices = 32;
    std::uint32_t channels = 16;
    std::uint32_t defaultCores = 0;
    double budgetScale = 1.0;
    std::string jobLogFile;
    std::string jobLogDir;
    std::string csvFile;
    std::size_t workers = 0;
    bool equivalenceCheck = false;
    std::string eqApp = "T-AlexNet";
    Cycle eqCycles = 20000;
    bool help = false;
};

std::optional<std::string>
valueOf(const char *arg, const char *key)
{
    const std::size_t n = std::strlen(key);
    if (std::strncmp(arg, key, n) == 0 && arg[n] == '=')
        return std::string(arg + n + 1);
    return std::nullopt;
}

double
parseDouble(const char *flag, const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        fatal("%s: '%s' is not a number", flag, text.c_str());
    return v;
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > start)
            out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (auto v = valueOf(a, "--apps"))
            o.apps = *v;
        else if (auto v = valueOf(a, "--arrivals"))
            o.arrivalsFile = *v;
        else if (auto v = valueOf(a, "--lambda"))
            o.lambdas = *v;
        else if (auto v = valueOf(a, "--policy"))
            o.policies = *v;
        else if (auto v = valueOf(a, "--design"))
            o.designs = *v;
        else if (auto v = valueOf(a, "--num-jobs"))
            o.numJobs = static_cast<std::size_t>(parseEnvInt(
                "--num-jobs", v->c_str(), 1, 1'000'000'000));
        else if (auto v = valueOf(a, "--horizon"))
            o.horizon = static_cast<Cycle>(parseEnvInt(
                "--horizon", v->c_str(), 1,
                std::numeric_limits<std::int64_t>::max()));
        else if (auto v = valueOf(a, "--seed"))
            o.seed = static_cast<std::uint64_t>(parseEnvInt(
                "--seed", v->c_str(), 0,
                std::numeric_limits<std::int64_t>::max()));
        else if (auto v = valueOf(a, "--cores"))
            o.cores = static_cast<std::uint32_t>(
                parseEnvInt("--cores", v->c_str(), 1, 4096));
        else if (auto v = valueOf(a, "--slices"))
            o.slices = static_cast<std::uint32_t>(
                parseEnvInt("--slices", v->c_str(), 1, 4096));
        else if (auto v = valueOf(a, "--channels"))
            o.channels = static_cast<std::uint32_t>(
                parseEnvInt("--channels", v->c_str(), 1, 4096));
        else if (auto v = valueOf(a, "--default-cores"))
            o.defaultCores = static_cast<std::uint32_t>(parseEnvInt(
                "--default-cores", v->c_str(), 1, 1'000'000));
        else if (auto v = valueOf(a, "--budget-scale"))
            o.budgetScale = parseDouble("--budget-scale", *v);
        else if (auto v = valueOf(a, "--job-log"))
            o.jobLogFile = *v;
        else if (auto v = valueOf(a, "--job-log-dir"))
            o.jobLogDir = *v;
        else if (auto v = valueOf(a, "--csv"))
            o.csvFile = *v;
        else if (auto v = valueOf(a, "--jobs"))
            o.workers = static_cast<std::size_t>(
                parseEnvInt("--jobs", v->c_str(), 1, 4096));
        else if (std::strcmp(a, "--equivalence-check") == 0)
            o.equivalenceCheck = true;
        else if (auto v = valueOf(a, "--app"))
            o.eqApp = *v;
        else if (auto v = valueOf(a, "--cycles"))
            o.eqCycles = static_cast<Cycle>(parseEnvInt(
                "--cycles", v->c_str(), 1,
                std::numeric_limits<std::int64_t>::max()));
        else if (std::strcmp(a, "--help") == 0 ||
                 std::strcmp(a, "-h") == 0)
            o.help = true;
        else
            fatal("unknown option '%s' (--help lists them)", a);
    }
    return o;
}

void
printHelp()
{
    std::printf(
        "dcl1serve — multi-tenant serving: open-loop job traffic, "
        "tail latency\n"
        "\n"
        "  --apps=X          mix .json file or comma list of catalog "
        "apps\n"
        "  --arrivals=FILE   trace-driven arrivals JSONL (disables "
        "--lambda)\n"
        "  --lambda=R[,R..]  offered load, jobs per 1000 cycles\n"
        "  --policy=P[,P..]  fcfs | sjf | rr\n"
        "  --design=D[,D..]  design presets (dcl1run --list-designs)\n"
        "  --num-jobs=N --horizon=N --seed=N      traffic shape\n"
        "  --cores=N --slices=N --channels=N      platform scaling\n"
        "  --default-cores=N --budget-scale=X     job sizing\n"
        "  --job-log=FILE    per-job JSONL (single cell only)\n"
        "  --job-log-dir=DIR per-job JSONL per cell\n"
        "  --csv=FILE        summary CSV, one row per cell (atomic)\n"
        "  --jobs=N          worker threads\n"
        "  --equivalence-check  single-job serve == classic single-app\n"
        "                    (--app=NAME --design=NAME --cycles=N "
        "--seed=N)\n"
        "\n"
        "%s\n",
        exec::kExitCodeContract);
}

/** One (design, policy, lambda) point of the sweep. */
struct Cell
{
    std::string design;
    serve::Policy policy = serve::Policy::Fcfs;
    double lambda = 0.0;
    serve::ServeSummary summary;
};

std::string
csvRow(const Cell &c, std::uint64_t seed)
{
    const serve::ServeSummary &s = c.summary;
    std::string row;
    row += c.design;
    row += ',';
    row += serve::policyName(c.policy);
    row += ',';
    row += stats::formatDouble(c.lambda);
    row += ',';
    row += std::to_string(seed);
    row += ',';
    row += std::to_string(s.offered);
    row += ',';
    row += std::to_string(s.started);
    row += ',';
    row += std::to_string(s.completed);
    row += ',';
    row += std::to_string(s.censored);
    row += ',';
    row += std::to_string(s.endCycle);
    row += ',';
    row += stats::formatDouble(s.offeredPerKcycle);
    row += ',';
    row += stats::formatDouble(s.completedPerKcycle);
    row += ',';
    row += stats::formatDouble(s.meanLatency);
    row += ',';
    row += stats::formatDouble(s.p50Latency);
    row += ',';
    row += stats::formatDouble(s.p95Latency);
    row += ',';
    row += stats::formatDouble(s.p99Latency);
    row += ',';
    row += stats::formatDouble(s.meanQueueDelay);
    row += ',';
    row += stats::formatDouble(s.jainFairness);
    row += ',';
    row += stats::formatDouble(s.machine.ipc);
    row += ',';
    row += stats::formatDouble(s.machine.l1MissRate);
    return row;
}

std::string
jobLogPathFor(const std::string &dir, const Cell &c)
{
    std::string lam = stats::formatDouble(c.lambda);
    for (char &ch : lam)
        if (ch == '.')
            ch = 'p';
    return dir + "/" + c.design + "_" + serve::policyName(c.policy) +
           "_" + lam + ".jsonl";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);

    if (o.help) {
        printHelp();
        return exec::kExitOk;
    }

    core::SystemConfig sys =
        core::SystemConfig::scaled(o.cores, o.slices, o.channels);
    sys.seed = o.seed;

    if (o.equivalenceCheck) {
        const std::vector<std::string> designs = splitCsv(o.designs);
        bool all_ok = true;
        for (const std::string &dname : designs) {
            const core::DesignConfig design = core::designByName(dname);
            const serve::EquivalenceReport rep =
                serve::checkSingleJobEquivalence(sys, design, o.eqApp,
                                                 o.eqCycles);
            std::printf("%-18s %-14s classic %016llx serve %016llx  %s\n",
                        dname.c_str(), o.eqApp.c_str(),
                        static_cast<unsigned long long>(rep.classicDigest),
                        static_cast<unsigned long long>(rep.serveDigest),
                        rep.match ? "MATCH" : "MISMATCH");
            all_ok = all_ok && rep.match;
        }
        return all_ok ? exec::kExitOk : exec::kExitRunFailed;
    }

    // Job mix: a .json mix file or a comma list of catalog apps.
    const bool mixIsFile =
        o.apps.size() > 5 &&
        o.apps.compare(o.apps.size() - 5, 5, ".json") == 0;
    const serve::JobMix mix = mixIsFile ? serve::loadMixFile(o.apps)
                                        : serve::mixFromAppList(o.apps);

    std::vector<serve::TraceJob> trace;
    if (!o.arrivalsFile.empty())
        trace = serve::loadJobTrace(o.arrivalsFile);

    const std::vector<std::string> designs = splitCsv(o.designs);
    const std::vector<std::string> policies = splitCsv(o.policies);
    std::vector<double> lambdas;
    if (trace.empty())
        for (const std::string &l : splitCsv(o.lambdas))
            lambdas.push_back(parseDouble("--lambda", l));
    else
        lambdas.push_back(0.0); // trace-driven: one load point
    if (designs.empty() || policies.empty() || lambdas.empty())
        fatal("need at least one design, policy, and lambda");

    std::vector<Cell> cells;
    for (const std::string &d : designs)
        for (const std::string &p : policies)
            for (const double l : lambdas) {
                Cell c;
                c.design = d;
                c.policy = serve::policyByName(p);
                c.lambda = l;
                cells.push_back(std::move(c));
            }

    if (!o.jobLogFile.empty() && cells.size() > 1)
        fatal("--job-log needs a single cell (%zu configured); "
              "use --job-log-dir",
              cells.size());

    exec::ExecOptions eopts;
    eopts.jobs = o.workers;
    exec::JobRunner runner(eopts);
    std::vector<exec::JobSpec> specs(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        Cell &cell = cells[i];
        specs[i].label = cell.design + "/" +
                         serve::policyName(cell.policy) + "/" +
                         stats::formatDouble(cell.lambda);
        specs[i].fn = [&, i](exec::JobContext &) {
            Cell &me = cells[i];
            const core::DesignConfig design =
                core::designByName(me.design);
            serve::ServeOptions sopts;
            sopts.policy = me.policy;
            sopts.lambdaJobsPerKcycle =
                me.lambda > 0.0 ? me.lambda : 1.0;
            sopts.numJobs = o.numJobs;
            sopts.horizon = o.horizon;
            sopts.seed = o.seed;
            sopts.budgetScale = o.budgetScale;
            sopts.defaultCores = o.defaultCores;
            sopts.trace = trace;
            serve::ServeSim sim(sys, design, mix, sopts);
            std::unique_ptr<exec::AppendLog> log;
            std::string path = o.jobLogFile;
            if (path.empty() && !o.jobLogDir.empty())
                path = jobLogPathFor(o.jobLogDir, me);
            if (!path.empty()) {
                log = std::make_unique<exec::AppendLog>(path);
                exec::AppendLog *raw = log.get();
                sim.setJobLogSink([raw](const std::string &line) {
                    raw->appendLine(line);
                });
            }
            me.summary = sim.run();
            return me.summary.machine;
        };
    }
    const std::vector<exec::JobResult> results = runner.run(specs);

    bool failed = false;
    for (const exec::JobResult &r : results) {
        if (r.ok)
            continue;
        failed = true;
        std::fprintf(stderr, "dcl1serve: cell %s failed (%s): %s\n",
                     r.label.c_str(), exec::failureKindName(r.kind),
                     r.error.c_str());
    }

    std::printf("platform   %s\n", sys.summary().c_str());
    std::printf("mix        %s (%zu entr%s)%s\n", o.apps.c_str(),
                mix.entries.size(),
                mix.entries.size() == 1 ? "y" : "ies",
                trace.empty() ? "" : " [trace-driven arrivals]");
    std::printf("%-18s %-5s %7s %6s %6s %5s %9s %9s %9s %7s %6s\n",
                "design", "pol", "lambda", "jobs", "done", "cens",
                "p50", "p95", "p99", "goodput", "jain");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!results[i].ok) {
            std::printf("%-18s %-5s %7s  FAILED\n",
                        cells[i].design.c_str(),
                        serve::policyName(cells[i].policy),
                        stats::formatDouble(cells[i].lambda).c_str());
            continue;
        }
        const serve::ServeSummary &s = cells[i].summary;
        std::printf(
            "%-18s %-5s %7s %6zu %6zu %5zu %9.0f %9.0f %9.0f %7.3f "
            "%6.3f\n",
            cells[i].design.c_str(), serve::policyName(cells[i].policy),
            stats::formatDouble(cells[i].lambda).c_str(), s.offered,
            s.completed, s.censored, s.p50Latency, s.p95Latency,
            s.p99Latency, s.completedPerKcycle, s.jainFairness);
    }

    if (!o.csvFile.empty()) {
        exec::AtomicFileWriter out(o.csvFile);
        out.stream() << "design,policy,lambda,seed,offered,started,"
                        "completed,censored,end_cycle,"
                        "offered_per_kcycle,goodput_per_kcycle,"
                        "mean_latency,p50_latency,p95_latency,"
                        "p99_latency,mean_queue_delay,jain_fairness,"
                        "ipc,l1_missrate\n";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (!results[i].ok)
                continue;
            out.stream() << csvRow(cells[i], o.seed) << "\n";
        }
        out.commit();
        inform("summary CSV written to %s", o.csvFile.c_str());
    }

    double total_ms = 0.0;
    for (const exec::JobResult &r : results)
        total_ms += r.wallMs;
    std::fprintf(stderr, "host time  %.1f ms over %zu cells\n",
                 total_ms, cells.size());

    return failed ? exec::kExitRunFailed : exec::kExitOk;
}
