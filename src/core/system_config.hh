/**
 * @file
 * Platform configuration (the paper's Table II).
 *
 * 80 cores at 1400 MHz with private 16 KB 4-way write-evict L1s
 * (28-cycle latency, 128 B lines), 32 address-sliced L2 banks behind a
 * 700 MHz 80x32 crossbar with 32 B flits, and 16 GDDR5 channels.
 */

#ifndef DCL1_CORE_SYSTEM_CONFIG_HH
#define DCL1_CORE_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "gpucore/lite_core.hh"
#include "mem/cache_bank.hh"
#include "mem/dram.hh"

namespace dcl1::core
{

/**
 * The most cores, L2 slices or DRAM channels any front door accepts
 * (flags, crash records, job mixes); the least is 1.
 */
inline constexpr std::uint32_t kMaxPlatformUnits = 4096;

/** The NoC clock as a fraction of the core clock (700 MHz / 1400 MHz). */
inline constexpr double kNocClockRatio = 0.5;

/** See file comment. */
struct SystemConfig
{
    std::uint32_t numCores = 80;
    std::uint32_t numL2Slices = 32;
    std::uint32_t numChannels = 16;
    std::uint32_t lineBytes = defaultLineBytes;
    std::uint32_t flitBytes = defaultFlitBytes;
    std::uint32_t chunkBytes = defaultChunkBytes;

    /// @name Private L1 (per core)
    /// @{
    std::uint32_t l1SizeBytes = 16 * 1024;
    std::uint32_t l1Assoc = 4;
    std::uint32_t l1Latency = 28;
    std::uint32_t l1Mshrs = 32;
    std::uint32_t l1TargetsPerMshr = 8;
    /// @}

    /// @name L2 slice
    /// @{
    std::uint32_t l2SliceSizeBytes = 128 * 1024;
    std::uint32_t l2Assoc = 8;
    std::uint32_t l2Latency = 20;
    std::uint32_t l2Mshrs = 128;
    std::uint32_t l2TargetsPerMshr = 16;
    /// @}

    /** L1 replacement policy (ablation knob; L2 slices use LRU). */
    mem::ReplPolicy l1Repl = mem::ReplPolicy::Lru;

    /** L1/DC-L1 write policy (the paper fixes write-evict; the
     *  write-back option is a *timing* ablation — no coherence is
     *  modelled, which is why GPUs use write-evict here). */
    mem::WritePolicy l1WritePolicy = mem::WritePolicy::WriteEvict;

    /** Warp scheduler (GPGPU-Sim lrr vs gto). */
    gpucore::WarpSched warpScheduler =
        gpucore::WarpSched::LooseRoundRobin;

    /** DC-L1 node queue depth (Q1..Q4; paper: four 128 B entries). */
    std::uint32_t nodeQueueCap = 4;

    /** GDDR5-like channel timing (core-cycle units). */
    mem::DramParams dram;

    /** Experiment seed (workload streams are deterministic in it). */
    std::uint64_t seed = 1;

    /** Scale the machine (e.g. the 120-core sensitivity study). */
    static SystemConfig
    scaled(std::uint32_t cores, std::uint32_t slices,
           std::uint32_t channels)
    {
        SystemConfig cfg;
        cfg.numCores = cores;
        cfg.numL2Slices = slices;
        cfg.numChannels = channels;
        return cfg;
    }

    /**
     * Front-door validation: fatal() on a platform no machine can be
     * built from — zero cores/slices/channels, zero cache ways or
     * sets, a non-power-of-two set count (cache geometry the paper's
     * designs scale by doubling/halving; rejecting the remainder-y
     * cases keeps capacity-scaled DC-L1s exact),
     * flits that do not divide a line, or zero-depth queues/MSHRs.
     * GpuSystem runs this at construction; grid builders run it when
     * a cell is added so a bad sweep axis dies before any job runs.
     */
    void validate() const;

    /** Human-readable one-line summary. */
    std::string summary() const;
};

} // namespace dcl1::core

#endif // DCL1_CORE_SYSTEM_CONFIG_HH
