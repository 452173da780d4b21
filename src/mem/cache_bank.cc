#include "mem/cache_bank.hh"

#include "check/check.hh"
#include "check/request_ledger.hh"
#include "common/log.hh"

namespace dcl1::mem
{

CacheBank::CacheBank(const CacheBankParams &params, std::uint32_t cache_id,
                     CacheListener *listener)
    : params_(params), cacheId_(cache_id), listener_(listener),
      tags_(params.numSets(), params.assoc, params.repl),
      mshr_(params.mshrs, params.targetsPerMshr),
      downstream_(params.downstreamCap), statGroup_(params.name)
{
    if (params.numSets() == 0)
        fatal("cache %s: size %u too small for %u-way %uB lines",
              params.name.c_str(), params.sizeBytes, params.assoc,
              params.lineBytes);
    statGroup_.addScalar("accesses", &accesses_);
    statGroup_.addScalar("hits", &hits_);
    statGroup_.addScalar("misses", &misses_);
    statGroup_.addScalar("read_accesses", &readAccesses_);
    statGroup_.addScalar("read_misses", &readMisses_);
    statGroup_.addScalar("write_accesses", &writeAccesses_);
    statGroup_.addScalar("write_hit_evicts", &writeHitEvicts_);
    statGroup_.addScalar("mshr_merges", &mshrMerges_);
    statGroup_.addScalar("blocked", &blocked_);
    statGroup_.addScalar("writebacks", &writebacks_);
}

bool
CacheBank::canAccept(Cycle now) const
{
    if (lastPortCycle_ == now)
        return false;
    // A deep completion backlog means the consumer is not draining
    // replies; model the stalled pipeline by refusing new work.
    if (completed_.size() > std::size_t(4) * (params_.latency + 1))
        return false;
    return true;
}

void
CacheBank::scheduleCompletion(MemRequestPtr req, Cycle ready)
{
    // Maintain nondecreasing order by insertion from the back; ready
    // times are almost always monotone, so this is nearly O(1).
    auto it = completed_.end();
    while (it != completed_.begin() && std::prev(it)->first > ready)
        --it;
    completed_.emplace(it, ready, std::move(req));
}

void
CacheBank::installLine(LineAddr line, bool dirty)
{
    if (tags_.contains(line))
        return; // e.g. write-validate raced with an in-flight fetch
    Victim victim = tags_.insert(line, dirty);
    if (listener_)
        listener_->onInstall(cacheId_, line);
    if (victim.valid) {
        if (listener_)
            listener_->onEvict(cacheId_, victim.line);
        if (victim.dirty) {
            auto wb = std::make_unique<MemRequest>();
            wb->op = MemOp::Write;
            wb->addr = victim.line * params_.lineBytes;
            wb->bytes = params_.lineBytes;
            wb->payloadBytes = params_.lineBytes;
            wb->core = invalidId;
            wb->fetchDepth = 0;
            // Writebacks are born inside this cache and audited like
            // any other request until DRAM absorbs them.
            DCL1_CHECK_ONLY(check::ledger().onCreate(
                *wb, 0, check::ReqStage::AtCache));
            pendingWritebacks_.push_back(std::move(wb));
            ++writebacks_;
        }
    }
}

bool
CacheBank::refusedByPreCheck(LineAddr line, bool write) const
{
    // A write-through needs room downstream. A read miss needs room in
    // its line's MSHR target list, or a free MSHR and room for its
    // fetch.
    if (write)
        return params_.policy == WritePolicy::WriteEvict &&
               downstream_.full();
    const bool miss_refused =
        mshr_.refuses(line) ||
        (downstream_.full() && !mshr_.hasEntry(line));
    return miss_refused && !params_.perfect && !tags_.contains(line);
}

AccessOutcome
CacheBank::access(MemRequestPtr &req, Cycle now)
{
    if (!canAccept(now))
        panic("cache %s: access without canAccept", params_.name.c_str());
    DCL1_ASSERT(lastPortCycle_ == cycleNever || now > lastPortCycle_,
                "cache %s: port clock ran backwards (%llu after %llu)",
                params_.name.c_str(),
                static_cast<unsigned long long>(now),
                static_cast<unsigned long long>(lastPortCycle_));

    const LineAddr line = req->line(params_.lineBytes);
    const bool write = req->isWrite();

    // --- structural pre-check (no state change but `blocked`) ---
    if (refusal_.epoch == epoch_ && refusal_.line == line &&
        refusal_.write == write) {
        // Nothing the pre-check reads has changed since it refused
        // this line and kind.
        DCL1_ASSERT(refusedByPreCheck(line, write),
                    "cache %s: remembered refusal of line %#llx no "
                    "longer holds",
                    params_.name.c_str(),
                    static_cast<unsigned long long>(line));
        ++blocked_;
        return AccessOutcome::Blocked;
    }
    if (refusedByPreCheck(line, write)) {
        refusal_ = Refusal{line, write, epoch_};
        ++blocked_;
        return AccessOutcome::Blocked;
    }

    // --- the access now occupies the port ---
    ++epoch_;
    lastPortCycle_ = now;
    ++accesses_;
    req->l1ServiceAt = now;
    stats::tlmEnter(req->tlm, params_.tlmSeg, now);
    DCL1_CHECK_ONLY(
        check::ledger().onTransition(*req, check::ReqStage::AtCache));

    if (write) {
        ++writeAccesses_;
        if (params_.policy == WritePolicy::WriteEvict) {
            // Write-evict + no-write-allocate: a hit evicts the line;
            // the write is always forwarded downstream and completes
            // when the ACK is passed back through fill().
            if (tags_.invalidate(line)) {
                ++writeHitEvicts_;
                ++hits_;
                if (listener_)
                    listener_->onEvict(cacheId_, line);
            } else {
                ++misses_;
            }
            req->payloadBytes = req->bytes;
            downstream_.push(std::move(req));
            return AccessOutcome::Miss;
        }
        // WriteBack: complete locally; allocate on miss (write-validate).
        if (tags_.probe(line)) {
            ++hits_;
            tags_.markDirty(line);
        } else {
            ++misses_;
            installLine(line, /*dirty=*/true);
        }
        req->isReply = true;
        req->payloadBytes = 0;
        scheduleCompletion(std::move(req), now + params_.latency);
        return AccessOutcome::Hit;
    }

    // Read-like access (Read / Atomic / Bypass routed to this bank).
    ++readAccesses_;
    if (params_.perfect || tags_.probe(line)) {
        ++hits_;
        if (req->isAtomic())
            tags_.markDirty(line);
        req->isReply = true;
        // A hit on an upstream cache's line fetch returns the whole
        // line; demand hits return the requested bytes.
        req->payloadBytes =
            req->isFetch() ? params_.lineBytes : req->bytes;
        scheduleCompletion(std::move(req), now + params_.latency);
        return AccessOutcome::Hit;
    }

    ++misses_;
    ++readMisses_;
    if (listener_)
        listener_->onMiss(cacheId_, line);
    switch (mshr_.registerMiss(line, req)) {
      case MshrOutcome::NewEntry:
        ++req->fetchDepth;
        req->payloadBytes = 0;
        downstream_.push(std::move(req));
        return AccessOutcome::Miss;
      case MshrOutcome::Merged:
        ++mshrMerges_;
        return AccessOutcome::Miss;
      case MshrOutcome::NoEntryFree:
      case MshrOutcome::NoTargetFree:
        break;
    }
    panic("cache %s: MSHR refused line %#llx after the pre-check",
          params_.name.c_str(), static_cast<unsigned long long>(line));
}

std::optional<MemRequestPtr>
CacheBank::takeCompleted(Cycle now)
{
    if (completed_.empty() || completed_.front().first > now)
        return std::nullopt;
    MemRequestPtr req = std::move(completed_.front().second);
    completed_.pop_front();
    return req;
}

std::optional<MemRequestPtr>
CacheBank::takeDownstream()
{
    ++epoch_;
    while (!pendingWritebacks_.empty() && downstream_.canPush()) {
        downstream_.push(std::move(pendingWritebacks_.front()));
        pendingWritebacks_.pop_front();
    }
    return downstream_.tryPop();
}

bool
CacheBank::hasDownstream() const
{
    return !downstream_.empty() || !pendingWritebacks_.empty();
}

void
CacheBank::fill(MemRequestPtr reply, Cycle now)
{
    // The reply (from a NoC, a DRAM channel, or a surrounding node's
    // Q4) is now inside this cache level.
    DCL1_CHECK_ONLY(
        check::ledger().onTransition(*reply, check::ReqStage::AtCache));
    stats::tlmEnter(reply->tlm, params_.tlmSeg, now);
    ++epoch_;
    if (reply->isWrite()) {
        // Write-through ACK (WriteEvict): complete the original write.
        scheduleCompletion(std::move(reply), now);
        return;
    }

    const LineAddr line = reply->line(params_.lineBytes);
    if (!reply->isFetch())
        panic("cache %s: fill with non-fetch read reply",
              params_.name.c_str());

    // Atomics never allocate; demand reads always do, and bypass
    // (instruction/texture/constant) traffic allocates in the L2 only.
    if (reply->op == MemOp::Read ||
        (reply->op == MemOp::Bypass &&
         params_.policy == WritePolicy::WriteBack)) {
        installLine(line, /*dirty=*/false);
    }

    std::vector<MemRequestPtr> targets = mshr_.completeFetch(line);

    --reply->fetchDepth;
    reply->isReply = true;
    // Still an upstream cache's fetch? Then it carries the whole line.
    reply->payloadBytes =
        reply->isFetch() ? params_.lineBytes : reply->bytes;
    scheduleCompletion(std::move(reply), now);

    // Fan the merged targets out through the port, one per cycle.
    Cycle ready = now;
    for (auto &t : targets) {
        ++ready;
        t->isReply = true;
        t->payloadBytes = t->isFetch() ? params_.lineBytes : t->bytes;
        scheduleCompletion(std::move(t), ready);
    }
}

bool
CacheBank::busy() const
{
    return !completed_.empty() || mshr_.inUse() != 0 ||
           !downstream_.empty() || !pendingWritebacks_.empty();
}

} // namespace dcl1::mem
