/**
 * @file
 * Workload model: parameterized synthetic GPGPU memory-reference
 * streams.
 *
 * The paper evaluates 28 CUDA applications whose traces are not
 * available here. The cache designs under study react to *address
 * stream properties* — inter-core replication, working-set size,
 * access skew, arithmetic intensity, coalescing — so each application
 * is modelled as a WorkloadParams record that reproduces its published
 * characteristics (replication ratio, L1 miss rate, capacity
 * sensitivity; paper Fig. 1). See workload/app_catalog.hh.
 */

#ifndef DCL1_WORKLOAD_WORKLOAD_HH
#define DCL1_WORKLOAD_WORKLOAD_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "common/types.hh"
#include "mem/request.hh"

namespace dcl1::workload
{

/** Address-generation pattern within a segment. */
enum class Pattern : std::uint8_t
{
    Uniform, ///< uniform random over the segment
    Stream,  ///< sequential per-warp walk (optionally with reuse)
    HotCold, ///< small hot subset with probability hotProb, else uniform
    Window,  ///< all cores access a sliding window (partition camping)
};

/** Per-application synthetic workload description. */
struct WorkloadParams
{
    std::string name = "app";
    std::string suite = "X";

    /// @name Occupancy and intensity
    /// @{
    std::uint32_t warpsPerCore = 48;
    double memRatio = 0.3;    ///< P(instruction is a global memory op)
    double bypassFrac = 0.01; ///< P(instruction is a non-L1 access)
    /// @}

    /// @name Shared (inter-core) footprint - the source of replication
    /// @{
    std::uint64_t sharedLines = 0; ///< shared segment size in lines
    double sharedFrac = 0.0;       ///< P(mem access targets shared data)
    Pattern sharedPattern = Pattern::Uniform;
    std::uint64_t hotLines = 0;  ///< HotCold: hot subset size
    double hotProb = 0.0;        ///< HotCold: P(access is hot)
    std::uint64_t windowLines = 0;        ///< Window: window size
    std::uint64_t windowPeriodCycles = 0; ///< Window: cycles per step
    /// @}

    /// @name Private (per-core) footprint
    /// @{
    std::uint64_t privateLines = 4096; ///< per-core segment in lines
    Pattern privatePattern = Pattern::Stream;
    double privateReuse = 0.0; ///< Stream: P(reuse a recent line)
    /**
     * Load imbalance (R-SC): cores with id % 4 == 0 get this factor
     * more private working set (1.0 = balanced).
     */
    double hotCoreFactor = 1.0;
    /// @}

    /// @name Access shape
    /// @{
    std::uint32_t coalescedAccesses = 1; ///< line requests per mem instr
    double writeFrac = 0.05;
    double atomicFrac = 0.0;
    std::uint32_t accessBytes = 32; ///< bytes needed per lane group
    /// @}

    /**
     * CTA-locality knob [0,1): fraction by which each core's shared
     * accesses are confined to a per-core subrange. 0 models the
     * default round-robin CTA scheduler (all cores touch everything);
     * larger values model the distributed CTA scheduler of [28].
     */
    double ctaLocality = 0.0;
};

/** One coalesced access of a memory instruction. */
struct MemAccessDesc
{
    mem::MemOp op = mem::MemOp::Read;
    Addr addr = 0;
    std::uint32_t bytes = 32;
};

/** A decoded warp instruction. */
struct WarpInstr
{
    bool isMem = false;
    std::uint8_t numAccesses = 0;
    std::array<MemAccessDesc, 8> accesses;
};

/** Produces per-warp instruction streams for the cores. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Generate the next instruction for (core, warp).
     * @param now current core cycle (drives Window phases)
     */
    virtual void nextInstr(CoreId core, WarpId warp, Cycle now,
                           WarpInstr &out) = 0;

    /** Warps resident on @p core (may differ per app). */
    virtual std::uint32_t warpsPerCore(CoreId core) const = 0;
};

/** Most warps a core may run (SyntheticSource, TraceFileSource). */
inline constexpr std::uint32_t kMaxWarpsPerCore = 64;

} // namespace dcl1::workload

#endif // DCL1_WORKLOAD_WORKLOAD_HH
