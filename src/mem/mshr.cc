#include "mem/mshr.hh"

#include "check/check.hh"
#include "check/request_ledger.hh"
#include "common/log.hh"

namespace dcl1::mem
{

thread_local bool gFetchLeakCheck = false;

MemRequest::~MemRequest()
{
    if (gFetchLeakCheck && fetchDepth > 0)
        panic("MemRequest destroyed while a registered fetch (line %llu)",
              static_cast<unsigned long long>(addr / defaultLineBytes));
    DCL1_CHECK_ONLY(check::ledger().onDestroy(*this));
}

Mshr::Mshr(std::uint32_t num_entries, std::uint32_t targets_per_entry)
    : numEntries_(num_entries), targetsPerEntry_(targets_per_entry)
{
    if (num_entries == 0 || targets_per_entry == 0)
        fatal("Mshr requires at least one entry and one target");
}

MshrOutcome
Mshr::registerMiss(LineAddr line, MemRequestPtr &req)
{
    auto it = entries_.find(line);
    if (it != entries_.end()) {
        if (listFull(it->second))
            return MshrOutcome::NoTargetFree;
        // Merging an upstream cache's fetch as a secondary target is
        // fine (the L2 does it constantly); only this entry's own
        // primary fetch must never come back, and it never re-enters
        // registerMiss because the owning bank holds it downstream.
        DCL1_CHECK_ONLY(
            check::ledger().onTransition(*req, check::ReqStage::InMshr));
        it->second.push_back(std::move(req));
        return MshrOutcome::Merged;
    }
    if (full())
        return MshrOutcome::NoEntryFree;
    entries_.try_emplace(line);
    DCL1_ASSERT(entries_.size() <= numEntries_,
                "Mshr: entry count %zu exceeds capacity %u",
                entries_.size(), numEntries_);
    return MshrOutcome::NewEntry;
}

bool
Mshr::hasEntry(LineAddr line) const
{
    return entries_.count(line) != 0;
}

bool
Mshr::refuses(LineAddr line) const
{
    auto it = entries_.find(line);
    return it == entries_.end() ? full() : listFull(it->second);
}

std::vector<MemRequestPtr>
Mshr::completeFetch(LineAddr line)
{
    auto it = entries_.find(line);
    if (it == entries_.end())
        panic("Mshr::completeFetch on line %llu with no entry",
              static_cast<unsigned long long>(line));
    std::vector<MemRequestPtr> targets = std::move(it->second);
    entries_.erase(it);
    // Released targets are back inside the owning cache, which fans
    // them out through its completion port.
    DCL1_CHECK_ONLY(for (const auto &t : targets) check::ledger()
                        .onTransition(*t, check::ReqStage::AtCache));
    return targets;
}

} // namespace dcl1::mem
