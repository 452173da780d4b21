/**
 * @file
 * Job mixes and job traces: what the arrival process offers.
 *
 * A JobMix is a weighted list of catalog applications; the serving
 * layer draws each arriving job's application from it. A JobTrace is
 * an explicit, pre-timed job list (trace-driven load) that bypasses
 * both the arrival process and the mix draw.
 *
 * The mix file format is a JSON array of objects:
 *
 *   [{"app": "T-AlexNet", "weight": 2, "cores": 16, "budget": 500000},
 *    {"app": "C-BFS"}]
 *
 * weight defaults to 1; cores and budget default to 0, meaning "use
 * the serving default" (footprint-class-sized cores, the catalog's
 * nominal instruction budget). cores is at most
 * core::kMaxPlatformUnits, as for dcl1serve --cores. The trace file format is JSONL: one object per
 * non-blank line, one line per job, with a required "cycle"
 * (non-decreasing) plus the same optional fields except weight.
 *
 * Both are strict JSON (common/json.hh): numbers follow the JSON
 * grammar, so "+3", ".5" and "1." are rejected; cores, budget and
 * cycle must be plain non-negative integers (budget and cycle at most
 * 10^18); a string's \u escapes may name only U+0000..U+007F;
 * duplicate and unknown keys are errors.
 */

#ifndef DCL1_SERVE_JOB_MIX_HH
#define DCL1_SERVE_JOB_MIX_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace dcl1::serve
{

/** One weighted component of a job mix. */
struct MixEntry
{
    std::string app;
    double weight = 1.0;
    std::uint32_t cores = 0;   ///< 0 = serving default for the app
    std::uint64_t budget = 0;  ///< 0 = catalog nominal budget
};

/** A weighted set of applications; entry index doubles as tenant id. */
struct JobMix
{
    std::vector<MixEntry> entries;
};

/** Uniform mix over comma-separated catalog app names. */
JobMix mixFromAppList(const std::string &csv);

/**
 * Parse mix JSON text. fatal()s naming @p what on malformed JSON
 * (with its offset), and naming the entry on unknown keys, unknown
 * apps, out-of-range values or non-positive weights.
 */
JobMix parseMixJson(const std::string &text, const std::string &what);

/** Read and parse a mix file; fatal() on I/O or parse errors. */
JobMix loadMixFile(const std::string &path);

/** One pre-timed job of a trace-driven run. */
struct TraceJob
{
    Cycle arrival = 0;
    std::string app;
    std::uint32_t cores = 0;
    std::uint64_t budget = 0;
};

/**
 * Parse JSONL trace text (see file comment); fatal()s naming
 * "@p what:<line>" on the first bad line.
 */
std::vector<TraceJob> parseJobTrace(const std::string &text,
                                    const std::string &what);

/** Read and parse a trace file; fatal() on I/O or parse errors. */
std::vector<TraceJob> loadJobTrace(const std::string &path);

/**
 * Weighted entry draw with cumulative weights fixed at construction;
 * the caller supplies the Rng so draw order stays with the schedule
 * generator.
 */
class MixSampler
{
  public:
    explicit MixSampler(const JobMix &mix);

    /** Index into mix.entries. */
    std::size_t draw(Rng &rng) const;

  private:
    std::vector<double> cumulative_;
};

} // namespace dcl1::serve

#endif // DCL1_SERVE_JOB_MIX_HH
