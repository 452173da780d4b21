#include "check/request_ledger.hh"

#include "common/log.hh"
#include "mem/request.hh"

namespace dcl1::check
{

const char *
stageName(ReqStage stage)
{
    switch (stage) {
      case ReqStage::Issued:
        return "Issued";
      case ReqStage::InNoc:
        return "InNoc";
      case ReqStage::AtCache:
        return "AtCache";
      case ReqStage::InMshr:
        return "InMshr";
      case ReqStage::AtDram:
        return "AtDram";
      case ReqStage::Retired:
        return "Retired";
    }
    return "?";
}

namespace
{

/** Allowed lifecycle moves (row = from, column = to). */
bool
transitionAllowed(ReqStage from, ReqStage to)
{
    switch (from) {
      case ReqStage::Issued:
        // Into a NoC, or straight into a private L1 (baseline cores).
        return to == ReqStage::InNoc || to == ReqStage::AtCache;
      case ReqStage::InNoc:
        // Hop between crossbar stages, or land at a cache level.
        return to == ReqStage::InNoc || to == ReqStage::AtCache;
      case ReqStage::AtCache:
        // Move between a node's queues and its bank, onward to a NoC,
        // to a memory channel, or get merged into an MSHR entry.
        return to == ReqStage::AtCache || to == ReqStage::InNoc ||
               to == ReqStage::AtDram || to == ReqStage::InMshr;
      case ReqStage::InMshr:
        // Only a fill completing the fetch releases merged targets.
        return to == ReqStage::AtCache;
      case ReqStage::AtDram:
        // A DRAM reply is collected by its L2 slice.
        return to == ReqStage::AtCache;
      case ReqStage::Retired:
        return false; // any move after retirement is use-after-retire
    }
    return false;
}

} // anonymous namespace

RequestLedger &
RequestLedger::instance()
{
    // Thread-local, not process-wide: the execution engine runs
    // independent simulations on concurrent worker threads, and a
    // GpuSystem lives entirely on the thread that constructed it, so
    // each thread auditing only its own requests is exactly the
    // isolation the ledger wants. Requests never migrate threads.
    static thread_local RequestLedger the_ledger;
    return the_ledger;
}

void
RequestLedger::record(std::uint8_t kind, std::uint64_t seq,
                      std::uint64_t addr, ReqStage from, ReqStage to)
{
    Event &e = events_[eventCount_ % kEventRing];
    e.seq = seq;
    e.addr = addr;
    e.from = from;
    e.to = to;
    e.kind = kind;
    ++eventCount_;
}

void
RequestLedger::onCreate(mem::MemRequest &req, Cycle now, ReqStage stage)
{
    if (!enabled_)
        return;
    if (req.chkSeq != 0)
        panic("ledger: request %llu registered twice",
              static_cast<unsigned long long>(req.chkSeq));
    req.chkSeq = ++nextSeq_;
    ++registered_;
    Entry e;
    e.stage = stage;
    e.createdAt = now;
    entries_.emplace(req.chkSeq, e);
    record(0, req.chkSeq, req.addr, stage, stage);
}

void
RequestLedger::onTransition(const mem::MemRequest &req, ReqStage to)
{
    if (!enabled_ || req.chkSeq == 0)
        return;
    auto it = entries_.find(req.chkSeq);
    if (it == entries_.end())
        panic("ledger: transition of unknown request %llu (addr %llx)",
              static_cast<unsigned long long>(req.chkSeq),
              static_cast<unsigned long long>(req.addr));
    Entry &e = it->second;
    if (!transitionAllowed(e.stage, to))
        panic("ledger: illegal transition %s -> %s "
              "(request %llu, addr %llx, core %u, %s)",
              stageName(e.stage), stageName(to),
              static_cast<unsigned long long>(req.chkSeq),
              static_cast<unsigned long long>(req.addr), req.core,
              req.isReply ? "reply" : "request");
    record(1, req.chkSeq, req.addr, e.stage, to);
    e.stage = to;
}

void
RequestLedger::onRetire(const mem::MemRequest &req)
{
    if (!enabled_ || req.chkSeq == 0)
        return;
    auto it = entries_.find(req.chkSeq);
    if (it == entries_.end())
        panic("ledger: retiring unknown request %llu",
              static_cast<unsigned long long>(req.chkSeq));
    const ReqStage from = it->second.stage;
    if (from == ReqStage::Retired)
        panic("ledger: double retire of request %llu (addr %llx)",
              static_cast<unsigned long long>(req.chkSeq),
              static_cast<unsigned long long>(req.addr));
    // A reply retires at a core (from a NoC or straight out of a
    // private L1) and a writeback retires where it is absorbed (L2 or
    // DRAM). A request still merged in an MSHR, or one that never left
    // its core, must not be consumed.
    if (from != ReqStage::InNoc && from != ReqStage::AtCache &&
        from != ReqStage::AtDram)
        panic("ledger: retire from illegal stage %s "
              "(request %llu, addr %llx)",
              stageName(from), static_cast<unsigned long long>(req.chkSeq),
              static_cast<unsigned long long>(req.addr));
    record(2, req.chkSeq, req.addr, from, ReqStage::Retired);
    it->second.stage = ReqStage::Retired;
    ++retiredCount_;
}

void
RequestLedger::onDestroy(const mem::MemRequest &req)
{
    if (!enabled_ || req.chkSeq == 0)
        return;
    auto it = entries_.find(req.chkSeq);
    if (it == entries_.end())
        return; // registered in a previous, since cleared, session
    if (strictDestroy_ && it->second.stage != ReqStage::Retired)
        panic("ledger: request %llu leaked (destroyed in stage %s, "
              "addr %llx, core %u)",
              static_cast<unsigned long long>(req.chkSeq),
              stageName(it->second.stage),
              static_cast<unsigned long long>(req.addr), req.core);
    entries_.erase(it);
}

std::size_t
RequestLedger::liveCount() const
{
    std::size_t live = 0;
    // Audit path only; never called from a ticked code path.
    for (const auto &kv : entries_) // lint: unordered-iter-ok
        if (kv.second.stage != ReqStage::Retired)
            ++live;
    return live;
}

void
RequestLedger::audit(const char *where) const
{
    if (!enabled_)
        return;
    const std::size_t live = liveCount();
    if (live != 0) {
        // Find one survivor to make the report actionable.
        for (const auto &kv : entries_) { // lint: unordered-iter-ok
            if (kv.second.stage != ReqStage::Retired) {
                panic("ledger audit (%s): %zu request(s) still live; "
                      "e.g. seq %llu stuck in stage %s since cycle %llu",
                      where, live,
                      static_cast<unsigned long long>(kv.first),
                      stageName(kv.second.stage),
                      static_cast<unsigned long long>(
                          kv.second.createdAt));
            }
        }
    }
}

std::string
RequestLedger::recentEventsJson() const
{
    static const char *const kind_names[] = {"create", "transition",
                                             "retire"};
    std::string out = "[";
    const std::uint64_t count =
        eventCount_ < kEventRing ? eventCount_ : kEventRing;
    const std::uint64_t first = eventCount_ - count;
    for (std::uint64_t i = 0; i < count; ++i) {
        const Event &e = events_[(first + i) % kEventRing];
        out += csprintf(
            "%s{\"seq\":%llu,\"ev\":\"%s\",\"from\":\"%s\","
            "\"to\":\"%s\",\"addr\":\"0x%llx\"}",
            i == 0 ? "" : ",", static_cast<unsigned long long>(e.seq),
            kind_names[e.kind], stageName(e.from), stageName(e.to),
            static_cast<unsigned long long>(e.addr));
    }
    out += "]";
    return out;
}

void
RequestLedger::clear()
{
    entries_.clear();
    eventCount_ = 0;
}

} // namespace dcl1::check
