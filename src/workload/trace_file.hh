/**
 * @file
 * Trace-file workload source: replay per-warp instruction traces from
 * a text file, the adoption path for driving dcl1sim with real
 * application traces (e.g. extracted from GPGPU-Sim / NVBit).
 *
 * Format — one record per line, '#' starts a comment:
 *
 *   <core> <warp> X <count>            count arithmetic instructions
 *   <core> <warp> R <hex-addr> <bytes> global load
 *   <core> <warp> W <hex-addr> <bytes> global store
 *   <core> <warp> A <hex-addr> <bytes> atomic
 *   <core> <warp> B <hex-addr> <bytes> non-L1 (bypass) access
 *
 * <warp> is below kMaxWarpsPerCore (64). <hex-addr> is hex digits
 * with an optional 0x prefix. A malformed record is fatal (file:line).
 *
 * Consecutive R/W records of the same (core, warp) marked with a
 * trailing '+' coalesce into one multi-access instruction:
 *
 *   0 3 R 1000 32 +
 *   0 3 R 1080 32
 *
 * Each warp replays its own stream; by default streams loop when
 * exhausted (throughput-style simulation).
 */

#ifndef DCL1_WORKLOAD_TRACE_FILE_HH
#define DCL1_WORKLOAD_TRACE_FILE_HH

#include <istream>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace dcl1::workload
{

/** See file comment. */
class TraceFileSource : public TraceSource
{
  public:
    /**
     * @param path trace file to load; fatal() on parse errors
     * @param num_cores cores in the simulated machine; trace records
     *        for cores outside [0, num_cores) are fatal
     * @param loop restart exhausted streams (default) or idle forever
     */
    TraceFileSource(const std::string &path, std::uint32_t num_cores,
                    bool loop = true);

    /** Parse from an already-open stream (unit tests). */
    TraceFileSource(std::istream &in, std::uint32_t num_cores,
                    bool loop = true);

    void nextInstr(CoreId core, WarpId warp, Cycle now,
                   WarpInstr &out) override;

    std::uint32_t warpsPerCore(CoreId core) const override;

    /** Total instruction records loaded. */
    std::uint64_t instructionCount() const { return instructions_; }

  private:
    void parse(std::istream &in, const std::string &name);
    std::vector<WarpInstr> &streamOf(CoreId core, WarpId warp);

    std::uint32_t numCores_;
    std::uint32_t warpsPerCore_ = 0;
    bool loop_;
    std::uint64_t instructions_ = 0;

    /** Per-(core, warp) instruction streams and replay cursors. */
    std::vector<std::vector<WarpInstr>> streams_;
    std::vector<std::size_t> cursor_;
};

} // namespace dcl1::workload

#endif // DCL1_WORKLOAD_TRACE_FILE_HH
