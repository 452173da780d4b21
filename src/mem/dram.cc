#include "mem/dram.hh"

#include <algorithm>

#include "check/check.hh"
#include "check/request_ledger.hh"
#include "common/log.hh"
#include "prof/prof.hh"

namespace dcl1::mem
{

DramChannel::DramChannel(const DramParams &params)
    : params_(params), banks_(params.numBanks), statGroup_(params.name)
{
    if (params.numBanks == 0 || params.queueCap == 0)
        fatal("DramChannel: banks/queue must be nonzero");
    statGroup_.addScalar("reads", &reads_);
    statGroup_.addScalar("writes", &writes_);
    statGroup_.addScalar("row_hits", &rowHits_);
    statGroup_.addScalar("row_misses", &rowMisses_);
    statGroup_.addScalar("bus_busy_cycles", &busBusy_);
}

std::uint64_t
DramChannel::localRow(Addr addr) const
{
    // Channel-local chunk index -> row of rowBytes owned data.
    const std::uint64_t local_chunk =
        addr / params_.chunkBytes / params_.numChannels;
    return local_chunk / (params_.rowBytes / params_.chunkBytes);
}

void
DramChannel::rearm()
{
    wakeAt_ = cycleNever;
    for (const Bank &bank : banks_)
        if (bank.queued != 0)
            wakeAt_ = std::min(wakeAt_, bank.readyAt);
}

void
DramChannel::push(MemRequestPtr req, Cycle now)
{
    if (!canAccept())
        panic("dram %s: push to full queue", params_.name.c_str());
    DCL1_CHECK_ONLY(
        check::ledger().onTransition(*req, check::ReqStage::AtDram));
    stats::tlmEnter(req->tlm, stats::Seg::Dram, now);
    // Consecutive local rows are spread across banks.
    const std::uint64_t local_row = localRow(req->addr);
    const auto b = static_cast<std::uint32_t>(local_row % params_.numBanks);
    ++banks_[b].queued;
    wakeAt_ = std::min(wakeAt_, banks_[b].readyAt);
    queue_.push_back(Queued{std::move(req), b, local_row / params_.numBanks});
}

void
DramChannel::tick(Cycle now)
{
    DCL1_ASSERT(now >= lastTick_,
                "dram %s: clock ran backwards (%llu after %llu)",
                params_.name.c_str(),
                static_cast<unsigned long long>(now),
                static_cast<unsigned long long>(lastTick_));
    DCL1_CHECK_ONLY(lastTick_ = now);
    if (queue_.empty()) {
        DCL1_PROF_COUNT(QuiescentDram, 1);
        return;
    }
    if (now < wakeAt_) {
        // Every queued request's bank is still busy.
        DCL1_CHECK_ONLY(for (const Queued &q : queue_) {
            if (banks_[q.bank].readyAt <= now)
                panic("dram %s: bank %u ready at %llu, before the "
                      "channel wakes at %llu",
                      params_.name.c_str(), q.bank,
                      static_cast<unsigned long long>(
                          banks_[q.bank].readyAt),
                      static_cast<unsigned long long>(wakeAt_));
        });
        DCL1_PROF_COUNT(WaitingDram, 1);
        return;
    }

    // FR-FCFS: oldest row-hit first, else oldest request whose bank is
    // ready to start a new row cycle. Some bank is ready at wakeAt_.
    auto pick = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        const Bank &bank = banks_[it->bank];
        if (bank.readyAt > now)
            continue;
        if (bank.openRow == it->row) {
            pick = it;
            break; // oldest row hit wins outright
        }
        if (pick == queue_.end())
            pick = it; // remember the oldest schedulable row miss
    }
    if (pick == queue_.end())
        panic("dram %s: no ready bank at wake cycle %llu",
              params_.name.c_str(), static_cast<unsigned long long>(now));

    Bank &bank = banks_[pick->bank];
    const std::uint64_t row = pick->row;
    MemRequestPtr req = std::move(pick->req);
    queue_.erase(pick);
    --bank.queued;

    Cycle col_ready = now;
    if (bank.openRow == row) {
        ++rowHits_;
    } else {
        ++rowMisses_;
        col_ready = now + params_.tRp + params_.tRcd;
        bank.openRow = row;
    }

    const Cycle data_start =
        std::max(col_ready + params_.tCl, busFreeAt_);
    const Cycle done = data_start + params_.burstCycles;
    DCL1_ASSERT(inService_.empty() || inService_.back().first <= done,
                "dram %s: completion at %llu before the previous one at "
                "%llu",
                params_.name.c_str(), static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(inService_.back().first));
    busFreeAt_ = done;
    busBusy_ += params_.burstCycles;
    bank.readyAt = done;
    rearm();

    if (req->isWrite()) {
        ++writes_;
        if (req->core == invalidId) {
            // L2 writeback: fire-and-forget, no reply. This is the
            // end of the writeback's life.
            DCL1_CHECK_ONLY(check::ledger().onRetire(*req));
            return;
        }
        // Write-through from an L1/DC-L1: ACK when the data lands.
        req->isReply = true;
        req->payloadBytes = 0;
        // inService_ is a bounded in-flight worklist; a MemRequest
        // arena would remove its allocations.
        inService_.emplace_back(done, std::move(req)); // lint: alloc-ok
        return;
    }

    ++reads_;
    req->isReply = true;
    req->payloadBytes =
        req->isFetch() ? defaultLineBytes : req->bytes;
    inService_.emplace_back(done, std::move(req)); // lint: alloc-ok
}

std::optional<MemRequestPtr>
DramChannel::takeCompleted(Cycle now)
{
    if (inService_.empty() || inService_.front().first > now)
        return std::nullopt;
    MemRequestPtr req = std::move(inService_.front().second);
    inService_.pop_front();
    return req;
}

} // namespace dcl1::mem
