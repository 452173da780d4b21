#include "stats/trace_export.hh"

#include "stats/stats.hh"

namespace dcl1::stats
{

TraceExport *&
tlsTraceSink()
{
    thread_local TraceExport *sink = nullptr;
    return sink;
}

TraceExport::TraceExport(std::uint32_t request_every,
                         std::size_t max_events)
    : requestEvery_(request_every == 0 ? 1 : request_every),
      maxEvents_(max_events)
{
}

void
TraceExport::push(Event e)
{
    MutexLock lock(mutex_);
    if (events_.size() >= maxEvents_) {
        ++dropped_;
        return;
    }
    events_.push_back(std::move(e));
}

void
TraceExport::reqSlice(std::uint32_t sample_id, const char *seg,
                      Cycle begin, Cycle end)
{
    // Keep 1 in requestEvery_ lifecycles; sample ids are dense (1, 2,
    // ...), so the subset is deterministic and spread across the run.
    if ((sample_id - 1) % requestEvery_ != 0)
        return;
    push({kRequestPid, sample_id, begin, end - begin, seg, {}, 0.0});
}

void
TraceExport::hostSlice(const char *phase, std::uint64_t begin_us,
                       std::uint64_t end_us)
{
    push({kHostPid, 0, begin_us, end_us - begin_us, phase, {}, 0.0});
}

void
TraceExport::counterEvent(const std::string &track, Cycle t, double value)
{
    push({kCounterPid, 0, t, 0, nullptr, track, value});
}

void
TraceExport::writeJson(std::ostream &os) const
{
    MutexLock lock(mutex_);
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const Event &e : events_) {
        if (!first)
            os << ",";
        first = false;
        if (e.pid == kCounterPid) {
            os << "{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"name\":\""
               << e.track << "\",\"ts\":" << e.ts
               << ",\"args\":{\"value\":" << formatDouble(e.value)
               << "}}";
        } else {
            os << "{\"ph\":\"X\",\"pid\":" << e.pid
               << ",\"tid\":" << e.tid
               << ",\"name\":\"" << e.seg << "\",\"ts\":" << e.ts
               << ",\"dur\":" << e.dur << "}";
        }
    }
    os << "],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace dcl1::stats
