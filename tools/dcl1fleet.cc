/**
 * @file
 * dcl1fleet — multi-process sweep launcher over dcl1sweep --worker.
 *
 *   dcl1fleet --workers=4 --run-dir=runs/main --out=results.csv \
 *             --designs=Baseline,Pr40 --apps=T-AlexNet,C-BFS
 *
 * Spawns K local `dcl1sweep --worker` processes that split one
 * durable run directory's cells through write-once claim files
 * (RunManifest::claim), waits for all of them, then merges with a
 * plain `dcl1sweep --resume --out` run. The merge is also the crash
 * recovery: it simulates every cell without a WAL record, including
 * any cell a killed worker claimed but never finished, and emits the
 * CSV in grid order. Because every cell is a pure function of its
 * configuration and metrics round-trip exactly, the merged CSV is
 * byte-identical to a single-process `--jobs=1` run; --verify
 * re-computes that reference and compares, byte for byte.
 *
 * Grid flags the launcher does not recognize (--designs, --apps,
 * --budget, --jobs, ...) are forwarded verbatim to every dcl1sweep it
 * spawns, so the worker grid, the merge run, and the --verify
 * reference all describe the same batch.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/log.hh"
#include "exec/exit_codes.hh"

using namespace dcl1;

namespace
{

void
printHelp()
{
    std::printf(
        "dcl1fleet — spawn K dcl1sweep --worker processes on one "
        "run directory,\nmerge (re-running crashed workers' cells), "
        "verify\n"
        "\n"
        "  --workers=K        worker processes (default 4)\n"
        "  --run-dir=DIR      shared durable run directory (required)\n"
        "  --out=FILE         merged CSV (required; written by a final\n"
        "                     --resume run after all workers exit)\n"
        "  --sweep-bin=PATH   dcl1sweep binary (default: next to\n"
        "                     dcl1fleet)\n"
        "  --verify           also run a fresh single-process --jobs=1\n"
        "                     sweep and require the merged CSV to be\n"
        "                     byte-identical\n"
        "\n"
        "Unrecognized --flags are forwarded to every spawned dcl1sweep\n"
        "(use them for --designs/--apps/--jobs/--budget/...).\n"
        "\n"
        "%s\n",
        exec::kExitCodeContract);
}

/** Spawn @p args (argv[0] = binary path); returns the child pid. */
pid_t
spawn(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("dcl1fleet: fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        ::execv(argv[0], argv.data());
        std::fprintf(stderr, "dcl1fleet: exec '%s' failed: %s\n",
                     argv[0], std::strerror(errno));
        std::_Exit(127);
    }
    return pid;
}

/** Wait for @p pid; returns the exit status, or 128+signal. */
int
await(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            fatal("dcl1fleet: waitpid failed: %s",
                  std::strerror(errno));
    }
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return -1;
}

/** Run @p args to completion; returns its exit status. */
int
run(const std::vector<std::string> &args)
{
    return await(spawn(args));
}

std::string
readWhole(const std::string &path)
{
    std::ifstream in(path);
    std::string text;
    for (std::string line; std::getline(in, line);) {
        text += line;
        text += '\n';
    }
    return text;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::size_t workers = 4;
    std::string run_dir = envStrOr("DCL1_RUN_DIR", "");
    std::string out_path;
    std::string sweep_bin;
    bool verify = false;
    std::vector<std::string> forwarded;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--workers=", 0) == 0)
            workers = static_cast<std::size_t>(parseEnvInt(
                "--workers", a.substr(10).c_str(), 1, 1024));
        else if (a.rfind("--run-dir=", 0) == 0)
            run_dir = a.substr(10);
        else if (a.rfind("--out=", 0) == 0)
            out_path = a.substr(6);
        else if (a.rfind("--sweep-bin=", 0) == 0)
            sweep_bin = a.substr(12);
        else if (a == "--verify")
            verify = true;
        else if (a == "--help" || a == "-h") {
            printHelp();
            return exec::kExitOk;
        } else if (a.rfind("--", 0) == 0)
            forwarded.push_back(a);
        else
            fatal("unknown argument '%s' (--help lists the options)",
                  a.c_str());
    }
    if (run_dir.empty())
        fatal("dcl1fleet: --run-dir=DIR is required (workers "
              "coordinate through it)");
    if (out_path.empty())
        fatal("dcl1fleet: --out=FILE is required (the merged CSV)");
    if (sweep_bin.empty()) {
        // Default: dcl1sweep sits next to this binary.
        const std::string self = argv[0];
        const std::size_t slash = self.rfind('/');
        sweep_bin = slash == std::string::npos
                        ? "dcl1sweep"
                        : self.substr(0, slash + 1) + "dcl1sweep";
    }

    // Workers: K one-pass claimants sharing the run directory.
    std::vector<std::string> worker_args = {sweep_bin, "--worker",
                                            "--run-dir=" + run_dir};
    worker_args.insert(worker_args.end(), forwarded.begin(),
                       forwarded.end());

    std::vector<pid_t> pids;
    for (std::size_t w = 0; w < workers; ++w) {
        pids.push_back(spawn(worker_args));
        std::fprintf(stderr, "[fleet] worker w%zu: pid %ld\n", w,
                     static_cast<long>(pids.back()));
    }

    std::size_t died = 0, resumable = 0, failed = 0;
    for (std::size_t w = 0; w < workers; ++w) {
        const int status = await(pids[w]);
        std::fprintf(stderr, "[fleet] worker w%zu exited %d%s\n", w,
                     status,
                     status >= 128 ? " (killed; the merge re-runs its "
                                     "unfinished cells)"
                                   : "");
        if (status == exec::kExitIncompatibleRunDir)
            // Every worker is running the same binary against the
            // same directory: they are all doomed the same way.
            fatal("dcl1fleet: run directory '%s' is incompatible with "
                  "this dcl1sweep build; use a fresh directory",
                  run_dir.c_str());
        if (status >= 128)
            ++died;
        else if (status == exec::kExitResumable)
            ++resumable;
        else if (status != exec::kExitOk)
            ++failed;
    }

    // Merge: a plain resume run writes the CSV in grid order and
    // simulates every cell without a record, which covers the cells a
    // killed worker claimed but never finished.
    std::fprintf(stderr,
                 "[fleet] merge (%zu worker(s) killed, %zu interrupted, "
                 "%zu with failed cells)\n",
                 died, resumable, failed);
    std::vector<std::string> merge = {sweep_bin, "--resume=" + run_dir,
                                      "--out=" + out_path};
    merge.insert(merge.end(), forwarded.begin(), forwarded.end());
    const int merge_status = run(merge);
    if (merge_status != exec::kExitOk) {
        std::fprintf(stderr, "[fleet] merge run exited %d\n",
                     merge_status);
        return merge_status;
    }

    if (verify) {
        // Reference: one process, one thread, no run directory — the
        // historical serial tool. The fleet must match it exactly.
        const std::string ref_path = run_dir + "/verify-ref.csv";
        std::vector<std::string> ref = {sweep_bin, "--jobs=1",
                                        "--out=" + ref_path};
        ref.insert(ref.end(), forwarded.begin(), forwarded.end());
        const int ref_status = run(ref);
        if (ref_status != exec::kExitOk)
            fatal("dcl1fleet: --verify reference run exited %d",
                  ref_status);
        const std::string merged = readWhole(out_path);
        const std::string reference = readWhole(ref_path);
        if (merged.empty() || merged != reference) {
            std::fprintf(stderr,
                         "[fleet] VERIFY FAILED: '%s' differs from "
                         "the single-process reference '%s'\n",
                         out_path.c_str(), ref_path.c_str());
            return exec::kExitRunFailed;
        }
        std::fprintf(stderr,
                     "[fleet] verify ok: merged CSV is byte-identical "
                     "to the single-process reference\n");
    }

    std::fprintf(stderr, "[fleet] done: %zu worker(s), merged CSV at %s\n",
                 workers, out_path.c_str());
    return exec::kExitOk;
}
