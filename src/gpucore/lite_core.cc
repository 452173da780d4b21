#include "gpucore/lite_core.hh"

#include "check/check.hh"
#include "check/request_ledger.hh"
#include "common/log.hh"

namespace dcl1::gpucore
{

LiteCore::LiteCore(const LiteCoreParams &params,
                   workload::TraceSource *source,
                   mem::CacheListener *listener)
    : params_(params), source_(source), lsu_(params.lsuQueueCap),
      outbound_(params.outQueueCap),
      statGroup_("core" + std::to_string(params.id))
{
    // A null source builds an idle core (serving layer); bindSource()
    // attaches the first stream later.
    numWarps_ = source ? source->warpsPerCore(params.id) : 0;
    warps_.resize(numWarps_);
    for (WarpId w = 0; w < numWarps_; ++w)
        readyWarps_.push_back(w);

    if (params.hasL1) {
        mem::CacheBankParams l1p = params.l1;
        l1p.name = "l1";
        l1_ = std::make_unique<mem::CacheBank>(l1p, params.id, listener);
        statGroup_.addChild(&l1_->statGroup());
    }

    statGroup_.addScalar("instructions", &instructions_);
    statGroup_.addScalar("mem_instructions", &memInstrs_);
    statGroup_.addScalar("arith_instructions", &arithInstrs_);
    statGroup_.addScalar("lsu_stalls", &lsuStalls_);
    statGroup_.addScalar("no_warp_cycles", &noWarpCycles_);
    statGroup_.addScalar("read_latency_sum", &readLatencySum_);
    statGroup_.addScalar("reads_completed", &readsCompleted_);
    statGroup_.addScalar("pre_service_sum", &preServiceSum_);
}

void
LiteCore::tick(Cycle now)
{
    if (l1_)
        pumpL1(now);
    drainLsu(now);
    issue(now);
}

void
LiteCore::bindSource(workload::TraceSource *source)
{
    if (!source)
        fatal("core %u: bindSource(null)", params_.id);
    if (busy())
        panic("core %u: binding a stream onto a busy core", params_.id);
    source_ = source;
    sourceClosed_ = false;
    bindingInstructions_ = 0;
    numWarps_ = source->warpsPerCore(params_.id);
    warps_.assign(numWarps_, WarpCtx{});
    readyWarps_.clear();
    for (WarpId w = 0; w < numWarps_; ++w)
        readyWarps_.push_back(w);
}

void
LiteCore::closeSource()
{
    sourceClosed_ = true;
    // Stashed instructions were never issued (and never counted):
    // dropping them keeps the per-binding odometer honest and frees
    // their warps from a fetch that will no longer happen.
    for (auto &ctx : warps_)
        ctx.hasStashedInstr = false;
}

void
LiteCore::unbindSource()
{
    if (busy())
        panic("core %u: unbinding a busy core", params_.id);
    source_ = nullptr;
    sourceClosed_ = false;
    numWarps_ = 0;
    warps_.clear();
    readyWarps_.clear();
}

void
LiteCore::issue(Cycle now)
{
    if (!issueEnabled_ || !source_ || sourceClosed_)
        return;
    std::uint32_t issued = 0;
    std::uint32_t scanned = 0;

    while (issued < params_.issueWidth &&
           scanned < params_.schedScanLimit && !readyWarps_.empty()) {
        ++scanned;
        const WarpId w = readyWarps_.front();
        readyWarps_.pop_front();
        WarpCtx &ctx = warps_[w];

        workload::WarpInstr instr;
        if (ctx.hasStashedInstr) {
            instr = ctx.stashed;
        } else {
            source_->nextInstr(params_.id, w, now, instr);
        }

        if (!instr.isMem) {
            ++instructions_;
            ++bindingInstructions_;
            ++arithInstrs_;
            ++issued;
            ctx.hasStashedInstr = false;
            // GTO keeps issuing from the same warp until it stalls;
            // loose round-robin rotates.
            if (params_.sched == WarpSched::GreedyThenOldest)
                readyWarps_.push_front(w);
            else
                readyWarps_.push_back(w);
            continue;
        }

        // Check LSU space and the store-buffer bound for the whole
        // coalesced burst before committing anything.
        std::uint32_t reads = 0;
        std::uint32_t writes = 0;
        for (std::uint32_t i = 0; i < instr.numAccesses; ++i) {
            if (instr.accesses[i].op == mem::MemOp::Write)
                ++writes;
            else
                ++reads;
        }
        const bool lsu_ok =
            lsu_.size() + instr.numAccesses <= lsu_.capacity();
        const bool writes_ok =
            outstandingWrites_ + writes <= params_.maxOutstandingWrites;
        if (!lsu_ok || !writes_ok) {
            ++lsuStalls_;
            ctx.hasStashedInstr = true;
            ctx.stashed = instr;
            readyWarps_.push_back(w);
            continue;
        }

        ctx.hasStashedInstr = false;
        ++instructions_;
        ++bindingInstructions_;
        ++memInstrs_;
        ++issued;

        for (std::uint32_t i = 0; i < instr.numAccesses; ++i) {
            const auto &a = instr.accesses[i];
            auto req = mem::makeRequest(a.op, a.addr, a.bytes,
                                        params_.id, w, now);
            // Register with the lifecycle ledger at the injection
            // point: everything the machine does with this request
            // from here on is audited.
            DCL1_CHECK_ONLY(check::ledger().onCreate(*req, now));
            // Attribution samples read-class requests only: writes are
            // fire-and-forget and never enter readLatencySum.
            if (tlm_ && !req->isWrite())
                tlm_->onCreate(req->tlm, now);
            lsu_.push(std::move(req));
        }
        outstandingWrites_ += writes;
        ctx.pendingReads += reads;
        outstandingReads_ += reads;

        if (ctx.pendingReads == 0) {
            // Store-only instruction: the warp does not block.
            readyWarps_.push_back(w);
        }
    }

    if (readyWarps_.empty())
        ++noWarpCycles_;
}

void
LiteCore::drainLsu(Cycle now)
{
    std::uint32_t moved = 0;
    while (!lsu_.empty() && moved < 2) {
        mem::MemRequestPtr &head = lsu_.front();
        const bool to_l1 = l1_ && head->usesL1();
        if (to_l1) {
            // The L1 data port is single-issue per cycle; access()
            // leaves the head in place when structurally blocked.
            if (!l1_->canAccept(now))
                break;
            mem::AccessOutcome outcome = l1_->access(head, now);
            if (outcome == mem::AccessOutcome::Blocked)
                break;
            lsu_.pop();
            ++moved;
            break;
        }
        // Atomic / bypass in baseline mode, or everything in DC-L1
        // ("lite") mode, heads for the interconnect.
        if (!outbound_.canPush())
            break;
        outbound_.push(lsu_.pop());
        ++moved;
    }
}

void
LiteCore::pumpL1(Cycle now)
{
    // Completions: hits, filled misses, write ACKs.
    while (auto done = l1_->takeCompleted(now))
        retire(**done, now);

    // Misses / write-throughs head to the interconnect.
    while (l1_->hasDownstream() && outbound_.canPush()) {
        auto req = l1_->takeDownstream();
        if (!req)
            break;
        outbound_.push(std::move(*req));
    }
}

void
LiteCore::wakeWarp(WarpId warp)
{
    WarpCtx &ctx = warps_[warp];
    if (ctx.pendingReads == 0)
        panic("core %u: waking warp %u with no pending reads",
              params_.id, warp);
    --ctx.pendingReads;
    --outstandingReads_;
    if (ctx.pendingReads != 0)
        return;
    if (params_.sched == WarpSched::GreedyThenOldest) {
        // Keep the ready list ordered by warp id ("oldest" warp first).
        auto it = readyWarps_.begin();
        while (it != readyWarps_.end() && *it < warp)
            ++it;
        readyWarps_.insert(it, warp);
    } else {
        readyWarps_.push_back(warp);
    }
}

std::optional<mem::MemRequestPtr>
LiteCore::takeOutbound()
{
    auto req = outbound_.tryPop();
    // The caller is the interconnect: from here the request is on the
    // wire (the crossbar's inject() self-transitions InNoc -> InNoc).
    DCL1_CHECK_ONLY({
        if (req)
            check::ledger().onTransition(**req, check::ReqStage::InNoc);
    });
    return req;
}

void
LiteCore::deliverReply(mem::MemRequestPtr reply, Cycle now)
{
    if (!reply->isReply)
        panic("core %u: delivered non-reply", params_.id);

    if (l1_ && reply->usesL1()) {
        // Baseline: read fetch fills the L1; write ACK completes there.
        l1_->fill(std::move(reply), now);
        return;
    }

    retire(*reply, now);
}

void
LiteCore::retire(mem::MemRequest &req, Cycle now)
{
    DCL1_CHECK_ONLY(check::ledger().onRetire(req));
    if (req.isWrite()) {
        if (outstandingWrites_ == 0)
            panic("core %u: write ACK underflow", params_.id);
        --outstandingWrites_;
        return;
    }
    if (tlm_)
        tlm_->onRetire(req.tlm, now);
    readLatencySum_ += now - req.createdAt;
    // DC-L1 bypass and atomic replies never pass an L1 and leave
    // l1ServiceAt unset.
    if (req.l1ServiceAt >= req.createdAt)
        preServiceSum_ += req.l1ServiceAt - req.createdAt;
    ++readsCompleted_;
    wakeWarp(req.warp);
}

bool
LiteCore::busy() const
{
    if (!lsu_.empty() || !outbound_.empty())
        return true;
    if (outstandingReads_ != 0 || outstandingWrites_ != 0)
        return true;
    if (l1_ && l1_->busy())
        return true;
    return false;
}

double
LiteCore::avgReadLatency() const
{
    const auto n = readsCompleted_.value();
    return n ? double(readLatencySum_.value()) / double(n) : 0.0;
}

} // namespace dcl1::gpucore
