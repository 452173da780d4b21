#include "workload/synthetic.hh"

#include <algorithm>

#include "common/log.hh"

namespace dcl1::workload
{

namespace
{

constexpr LineAddr privateBaseLine = 1ull << 23;
constexpr LineAddr privateStrideLines = 1ull << 16;
constexpr LineAddr bypassBaseLine = 1ull << 33;
constexpr LineAddr bypassStrideLines = 1ull << 10;
constexpr std::uint64_t bypassSegLines = 64;

} // anonymous namespace

SyntheticSource::SyntheticSource(const WorkloadParams &params,
                                 std::uint32_t num_cores,
                                 std::uint32_t line_bytes,
                                 std::uint64_t seed)
    : params_(params), numCores_(num_cores), lineBytes_(line_bytes)
{
    if (num_cores == 0)
        fatal("SyntheticSource: zero cores");
    if (params.warpsPerCore == 0 || params.warpsPerCore > kMaxWarpsPerCore)
        fatal("SyntheticSource %s: warpsPerCore must be 1..%u",
              params.name.c_str(), kMaxWarpsPerCore);
    if (params.sharedFrac > 0.0 && params.sharedLines == 0)
        fatal("SyntheticSource %s: sharedFrac without sharedLines",
              params.name.c_str());
    if (params.coalescedAccesses == 0 || params.coalescedAccesses > 8)
        fatal("SyntheticSource %s: coalescedAccesses must be 1..8",
              params.name.c_str());

    coreRng_.reserve(num_cores);
    for (std::uint32_t c = 0; c < num_cores; ++c)
        coreRng_.emplace_back(seed * 0x9e3779b97f4a7c15ull + c + 1);
    warpState_.resize(std::size_t(num_cores) * params.warpsPerCore);
}

std::uint32_t
SyntheticSource::warpsPerCore(CoreId core) const
{
    (void)core;
    return params_.warpsPerCore;
}

std::uint64_t
SyntheticSource::privateLinesOf(CoreId core) const
{
    std::uint64_t lines = params_.privateLines;
    if (params_.hotCoreFactor > 1.0 && core % 4 == 0) {
        lines = static_cast<std::uint64_t>(double(lines) *
                                           params_.hotCoreFactor);
    }
    return std::max<std::uint64_t>(lines, 1);
}

LineAddr
SyntheticSource::sharedLine(CoreId core, Cycle now, Rng &rng)
{
    const std::uint64_t total = params_.sharedLines;

    // CTA-locality: confine this core's draws to a subrange.
    std::uint64_t range = total;
    std::uint64_t base = 0;
    if (params_.ctaLocality > 0.0 && numCores_ > 1) {
        range = std::max<std::uint64_t>(
            static_cast<std::uint64_t>(
                double(total) * (1.0 - params_.ctaLocality)),
            1);
        base = (total - range) * core / (numCores_ - 1);
    }

    switch (params_.sharedPattern) {
      case Pattern::Uniform:
      case Pattern::Stream: // stream over shared data behaves uniformly
        return base + rng.below(range);
      case Pattern::HotCold:
        if (rng.chance(params_.hotProb))
            return rng.below(std::max<std::uint64_t>(params_.hotLines, 1));
        return base + rng.below(range);
      case Pattern::Window: {
        const std::uint64_t w =
            std::max<std::uint64_t>(params_.windowLines, 1);
        const std::uint64_t period =
            std::max<std::uint64_t>(params_.windowPeriodCycles, 1);
        const std::uint64_t pos = ((now / period) * w) % total;
        return (pos + rng.below(w)) % total;
      }
    }
    panic("SyntheticSource: bad shared pattern");
}

LineAddr
SyntheticSource::privateLine(CoreId core, WarpId warp, Rng &rng)
{
    const std::uint64_t lines = privateLinesOf(core);
    const LineAddr seg = privateBaseLine + core * privateStrideLines;
    WarpState &ws =
        warpState_[std::size_t(core) * params_.warpsPerCore + warp];

    if (params_.privatePattern == Pattern::Uniform)
        return seg + rng.below(lines);

    // Stream: sequential walk with optional short-distance reuse.
    if (params_.privateReuse > 0.0 && ws.recentCount > 0 &&
        rng.chance(params_.privateReuse)) {
        return ws.recent[rng.below(ws.recentCount)];
    }
    // Interleave warps across the segment so they stream disjoint parts.
    const std::uint64_t start =
        lines * warp / std::max<std::uint32_t>(params_.warpsPerCore, 1);
    const LineAddr line = seg + (start + ws.streamPos++) % lines;
    ws.recent[ws.recentHead] = line;
    ws.recentHead =
        std::uint8_t((ws.recentHead + 1u) % ws.recent.size());
    ws.recentCount = std::min<std::uint8_t>(
        ws.recentCount + 1, std::uint8_t(ws.recent.size()));
    return line;
}

void
SyntheticSource::nextInstr(CoreId core, WarpId warp, Cycle now,
                           WarpInstr &out)
{
    Rng &rng = coreRng_[core];
    out.isMem = false;
    out.numAccesses = 0;

    const double roll = rng.uniform();
    if (roll < params_.bypassFrac) {
        // Non-L1 access (instruction / texture / constant miss).
        out.isMem = true;
        out.numAccesses = 1;
        MemAccessDesc &a = out.accesses[0];
        a.op = mem::MemOp::Bypass;
        const LineAddr line = bypassBaseLine +
                              core * bypassStrideLines +
                              rng.below(bypassSegLines);
        a.addr = line * lineBytes_;
        a.bytes = lineBytes_;
        return;
    }
    if (roll >= params_.bypassFrac + params_.memRatio)
        return; // arithmetic instruction

    out.isMem = true;
    out.numAccesses = std::uint8_t(params_.coalescedAccesses);
    for (std::uint32_t i = 0; i < params_.coalescedAccesses; ++i) {
        MemAccessDesc &a = out.accesses[i];
        LineAddr line;
        if (params_.sharedFrac > 0.0 && rng.chance(params_.sharedFrac))
            line = sharedLine(core, now, rng);
        else
            line = privateLine(core, warp, rng);

        const double op_roll = rng.uniform();
        if (op_roll < params_.atomicFrac)
            a.op = mem::MemOp::Atomic;
        else if (op_roll < params_.atomicFrac + params_.writeFrac)
            a.op = mem::MemOp::Write;
        else
            a.op = mem::MemOp::Read;

        const std::uint32_t sectors = lineBytes_ / params_.accessBytes;
        a.addr = line * lineBytes_ +
                 (sectors > 1 ? rng.below(sectors) * params_.accessBytes
                              : 0);
        a.bytes = params_.accessBytes;
    }
}

} // namespace dcl1::workload
