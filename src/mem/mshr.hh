/**
 * @file
 * Miss Status Holding Registers.
 *
 * One entry per outstanding line fetch; secondary misses to the same
 * line are merged as targets and completed together when the fill
 * arrives. In DC-L1 nodes the targets may come from different cores —
 * this cross-core merging is one source of the shared design's traffic
 * reduction.
 */

#ifndef DCL1_MEM_MSHR_HH
#define DCL1_MEM_MSHR_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "mem/request.hh"

namespace dcl1::mem
{

/** Outcome of registering a miss. */
enum class MshrOutcome : std::uint8_t
{
    NewEntry,     ///< first miss on this line; caller must fetch
    Merged,       ///< merged into an in-flight fetch
    NoEntryFree,  ///< structural hazard: all entries busy
    NoTargetFree, ///< structural hazard: entry's target list full
};

/** MSHR file keyed by line address. */
class Mshr
{
  public:
    /**
     * @param num_entries maximum outstanding line fetches
     * @param targets_per_entry maximum merged requests per line
     *        (including the primary)
     */
    Mshr(std::uint32_t num_entries, std::uint32_t targets_per_entry);

    /**
     * Register a miss on @p line. If the outcome is Merged, ownership of
     * @p req moves into the entry; for NewEntry the caller keeps the
     * request and sends it downstream as the primary fetch. For the
     * structural-hazard outcomes @p req is untouched.
     */
    MshrOutcome registerMiss(LineAddr line, MemRequestPtr &req);

    /** @return true iff a fetch for @p line is outstanding. */
    bool hasEntry(LineAddr line) const;

    /**
     * Would registerMiss(@p line) refuse? True when the line's entry
     * has a full target list, or when it has no entry and none is free
     * (GPGPU-Sim's mshr_table::full(addr)).
     */
    bool refuses(LineAddr line) const;

    /**
     * Complete the fetch of @p line: remove the entry and return all
     * merged secondary targets (the primary travelled with the fetch).
     */
    std::vector<MemRequestPtr> completeFetch(LineAddr line);

    bool full() const { return entries_.size() >= numEntries_; }
    std::size_t inUse() const { return entries_.size(); }

  private:
    /** Does a list of merged targets fill its entry with the primary? */
    bool
    listFull(const std::vector<MemRequestPtr> &targets) const
    {
        return targets.size() + 1 >= targetsPerEntry_;
    }

    std::uint32_t numEntries_;
    std::uint32_t targetsPerEntry_;
    /** Each outstanding line's merged secondary targets. */
    std::unordered_map<LineAddr, std::vector<MemRequestPtr>> entries_;
};

} // namespace dcl1::mem

#endif // DCL1_MEM_MSHR_HH
