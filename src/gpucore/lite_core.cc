#include "gpucore/lite_core.hh"

#include "check/check.hh"
#include "check/request_ledger.hh"
#include "common/log.hh"

namespace dcl1::gpucore
{

void
LiteCore::WarpRing::insertOrdered(WarpId w)
{
    std::uint32_t pos = 0;
    while (pos < size_ && at(pos) < w)
        ++pos;
    for (std::uint32_t i = size_; i > pos; --i)
        at(i) = at(i - 1);
    at(pos) = w;
    ++size_;
}

void
LiteCore::WarpRing::rotate(std::uint64_t k)
{
    if (size_ == 0)
        return;
    for (k %= size_; k != 0; --k)
        pushBack(popFront());
}

namespace
{

/** The ring holds every warp; more would overrun it. */
std::uint32_t
checkedWarps(CoreId core, const workload::TraceSource &source)
{
    const std::uint32_t warps = source.warpsPerCore(core);
    if (warps > workload::kMaxWarpsPerCore)
        fatal("core %u: %u warps exceed the %u a core holds", core, warps,
              workload::kMaxWarpsPerCore);
    return warps;
}

} // anonymous namespace

LiteCore::LiteCore(const LiteCoreParams &params,
                   workload::TraceSource *source,
                   mem::CacheListener *listener)
    : params_(params), source_(source), lsu_(params.lsuQueueCap),
      outbound_(params.outQueueCap),
      statGroup_("core" + std::to_string(params.id))
{
    // A null source builds an idle core (serving layer); bindSource()
    // attaches the first stream later.
    numWarps_ = source ? checkedWarps(params.id, *source) : 0;
    warps_.resize(numWarps_);
    for (WarpId w = 0; w < numWarps_; ++w)
        readyWarps_.pushBack(w);

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
    if (canReplay(now)) {
        // Repeat the last tick's effects; it changed nothing, and
        // nothing it read has changed since.
        lsuStalls_ += lastStalls_;
        if (lastNoWarp_)
            ++noWarpCycles_;
        if (headBlocked_)
            l1_->countBlocked();
        unrotated_ += lastStalls_;
        return;
    }
    settleRotation();
    bool changed = l1_ && pumpL1(now);
    changed |= drainLsu(now);
    changed |= issue(now);

    stalled_ = !changed;
    quietScans_ = changed ? 0 : quietScans_ + lastStalls_;
    // Every ready warp refused since the last change means the next
    // tick would see exactly what this one saw.
    armed_ = !changed &&
             (issueGated() || quietScans_ >= readyWarps_.size());
}

bool
LiteCore::canReplay(Cycle now) const
{
    return armed_ && (!l1_ || now < l1_->nextCompletion());
}

void
LiteCore::endReplay()
{
    settleRotation();
    armed_ = false;
    quietScans_ = 0;
}

void
LiteCore::settleRotation()
{
    // Most full ticks owe nothing; skip the ring's modulo.
    if (unrotated_ == 0)
        return;
    readyWarps_.rotate(unrotated_);
    unrotated_ = 0;
}

void
LiteCore::bindSource(workload::TraceSource *source)
{
    if (!source)
        fatal("core %u: bindSource(null)", params_.id);
    if (busy())
        panic("core %u: binding a stream onto a busy core", params_.id);
    numWarps_ = checkedWarps(params_.id, *source);
    source_ = source;
    sourceClosed_ = false;
    bindingInstructions_ = 0;
    warps_.assign(numWarps_, WarpCtx{});
    endReplay();
    readyWarps_.clear();
    for (WarpId w = 0; w < numWarps_; ++w)
        readyWarps_.pushBack(w);
}

void
LiteCore::closeSource()
{
    sourceClosed_ = true;
    endReplay();
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
    endReplay();
    readyWarps_.clear();
}

bool
LiteCore::issue(Cycle now)
{
    lastStalls_ = 0;
    lastNoWarp_ = false;
    if (issueGated())
        return false;
    bool changed = false;
    std::uint32_t issued = 0;
    std::uint32_t scanned = 0;

    while (issued < params_.issueWidth &&
           scanned < params_.schedScanLimit && !readyWarps_.empty()) {
        ++scanned;
        const WarpId w = readyWarps_.popFront();
        WarpCtx &ctx = warps_[w];

        // The instruction lives in the stash: a refused one is already
        // where the next attempt reads it.
        if (!ctx.hasStashedInstr) {
            source_->nextInstr(params_.id, w, now, ctx.stashed);
            changed = true;
        }
        const workload::WarpInstr &instr = ctx.stashed;

        if (!instr.isMem) {
            ++instructions_;
            ++bindingInstructions_;
            ++arithInstrs_;
            ++issued;
            ctx.hasStashedInstr = false;
            // GTO keeps issuing from the same warp until it stalls;
            // loose round-robin rotates.
            if (params_.sched == WarpSched::GreedyThenOldest)
                readyWarps_.pushFront(w);
            else
                readyWarps_.pushBack(w);
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
            ++lastStalls_;
            ctx.hasStashedInstr = true;
            readyWarps_.pushBack(w);
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
            readyWarps_.pushBack(w);
        }
    }

    if (readyWarps_.empty()) {
        ++noWarpCycles_;
        lastNoWarp_ = true;
    }
    return changed || issued != 0;
}

bool
LiteCore::drainLsu(Cycle now)
{
    headBlocked_ = false;
    std::uint32_t moved = 0;
    while (!lsu_.empty() && moved < 2) {
        mem::MemRequestPtr &head = lsu_.front();
        const bool to_l1 = l1_ && head->usesL1();
        if (to_l1) {
            // The L1 data port is single-issue per cycle. A refused
            // access leaves the head in place and changes only the
            // L1's blocked count.
            if (!l1_->canAccept(now))
                break;
            headBlocked_ =
                l1_->access(head, now) == mem::AccessOutcome::Blocked;
            if (!headBlocked_) {
                lsu_.pop();
                ++moved;
            }
            break;
        }
        // Atomic / bypass in baseline mode, or everything in DC-L1
        // ("lite") mode, heads for the interconnect.
        if (!outbound_.canPush())
            break;
        outbound_.push(lsu_.pop());
        ++moved;
    }
    return moved != 0;
}

bool
LiteCore::pumpL1(Cycle now)
{
    bool changed = false;
    // Completions: hits, filled misses, write ACKs.
    while (auto done = l1_->takeCompleted(now)) {
        retire(**done, now);
        changed = true;
    }

    // Misses / write-throughs head to the interconnect.
    while (l1_->hasDownstream() && outbound_.canPush()) {
        auto req = l1_->takeDownstream();
        if (!req)
            break;
        outbound_.push(std::move(*req));
        changed = true;
    }
    return changed;
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
        readyWarps_.insertOrdered(warp);
    } else {
        readyWarps_.pushBack(warp);
    }
}

std::optional<mem::MemRequestPtr>
LiteCore::takeOutbound()
{
    auto req = outbound_.tryPop();
    if (req)
        endReplay();
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
    endReplay();

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
    // Every cache bank that takes a request stamps l1ServiceAt, the L2
    // included. So an L1 miss's primary, which is also its L2 fetch,
    // and a DC-L1 bypass or atomic request, which reaches only the L2,
    // count their wait up to L2 service here.
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
