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

std::uint32_t
DramChannel::bankOf(Addr addr) const
{
    // Spread consecutive local rows across banks.
    return static_cast<std::uint32_t>(localRow(addr) % params_.numBanks);
}

std::uint64_t
DramChannel::rowOf(Addr addr) const
{
    return localRow(addr) / params_.numBanks;
}

void
DramChannel::push(MemRequestPtr req, Cycle now)
{
    if (!canAccept())
        panic("dram %s: push to full queue", params_.name.c_str());
    DCL1_CHECK_ONLY(
        check::ledger().onTransition(*req, check::ReqStage::AtDram));
    stats::tlmEnter(req->tlm, stats::Seg::Dram, now);
    queue_.push_back(Queued{std::move(req), now});
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

    // FR-FCFS: oldest row-hit first, else oldest request whose bank is
    // ready to start a new row cycle.
    auto pick = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        const Addr addr = it->req->addr;
        Bank &bank = banks_[bankOf(addr)];
        if (bank.readyAt > now)
            continue;
        if (bank.openRow == rowOf(addr)) {
            pick = it;
            break; // oldest row hit wins outright
        }
        if (pick == queue_.end())
            pick = it; // remember the oldest schedulable row miss
    }
    if (pick == queue_.end())
        return;

    MemRequestPtr req = std::move(pick->req);
    queue_.erase(pick);

    const Addr addr = req->addr;
    Bank &bank = banks_[bankOf(addr)];
    const std::uint64_t row = rowOf(addr);

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
    busFreeAt_ = done;
    busBusy_ += params_.burstCycles;
    bank.readyAt = done;

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
    for (auto it = inService_.begin(); it != inService_.end(); ++it) {
        if (it->first <= now) {
            MemRequestPtr req = std::move(it->second);
            inService_.erase(it);
            return req;
        }
    }
    return std::nullopt;
}

} // namespace dcl1::mem
