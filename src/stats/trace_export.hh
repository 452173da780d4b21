/**
 * @file
 * Chrome trace-event export.
 *
 * Collects three kinds of events, one trace process (pid) each, and
 * serializes them as a catapult / Perfetto-loadable JSON trace
 * (chrome://tracing "trace event format"):
 *
 *  - pid 1, "X" complete events: one slice per (sampled request,
 *    segment) span, emitted live by the latency-attribution slow path.
 *    Each sampled request gets its own tid so its lifecycle reads as
 *    one horizontal track.
 *  - pid 2, "C" counter events: per-interval utilization tracks (queue
 *    depths, MSHR occupancy, ...) fed by the timeline sampler's hook.
 *  - pid 3, "X" host-phase slices (stats/prof_trace.hh), added after
 *    the run when host profiling is on.
 *
 * Timestamps of the first two are simulated cycles reported through
 * the trace format's microsecond field; wall time enters the file only
 * as host-phase slices, so same-seed traces without them are
 * byte-identical.
 *
 * The exporter is wired to the attribution slow path through a
 * thread_local sink pointer (tlsTraceSink), matching the engine's
 * one-simulation-per-worker-thread model: parallel jobs never share a
 * trace buffer.
 */

#ifndef DCL1_STATS_TRACE_EXPORT_HH
#define DCL1_STATS_TRACE_EXPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "common/types.hh"

namespace dcl1::stats
{

/**
 * Thread-safe event sink: the buffer and drop counter are guarded by
 * an internal mutex. Today each exporter is owned by one simulation
 * thread (tlsTraceSink is thread_local), so the lock is uncontended;
 * the annotation-checked locking is what lets the multi-tenant arc
 * share an exporter later without a data race appearing first.
 */
class TraceExport
{
  public:
    /**
     * @param request_every keep 1 in N *sampled* request lifecycles
     *        (on top of attribution's 1-in-N request sampling)
     * @param max_events hard cap on buffered events; the excess is
     *        counted in dropped() instead of exhausting memory
     */
    explicit TraceExport(std::uint32_t request_every = 16,
                         std::size_t max_events = 1u << 20);

    /** One request-segment span [begin, end) on track @p sample_id. */
    void reqSlice(std::uint32_t sample_id, const char *seg, Cycle begin,
                  Cycle end) DCL1_EXCLUDES(mutex_);

    /** One host-phase span [begin_us, end_us) of wall time; never
     *  thinned. */
    void hostSlice(const char *phase, std::uint64_t begin_us,
                   std::uint64_t end_us) DCL1_EXCLUDES(mutex_);

    /** One counter-track sample at cycle @p t. */
    void counterEvent(const std::string &track, Cycle t, double value)
        DCL1_EXCLUDES(mutex_);

    /** Serialize the whole trace as one JSON document. */
    void writeJson(std::ostream &os) const DCL1_EXCLUDES(mutex_);

    std::size_t
    events() const DCL1_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return events_.size();
    }

    std::size_t
    dropped() const DCL1_EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return dropped_;
    }

  private:
    /** Trace process of each event kind (see file comment). */
    enum Pid : std::uint32_t
    {
        kRequestPid = 1,
        kCounterPid = 2,
        kHostPid = 3,
    };

    struct Event
    {
        Pid pid;
        std::uint32_t tid;  ///< sample id for request slices, else 0
        std::uint64_t ts;   ///< cycles; microseconds for host slices
        std::uint64_t dur;  ///< slices only
        const char *seg;    ///< slices only (static string)
        std::string track;  ///< counters only
        double value;       ///< counters only
    };

    /** Buffer @p e, or count it dropped once the buffer is full. */
    void push(Event e) DCL1_EXCLUDES(mutex_);

    std::uint32_t requestEvery_;
    std::size_t maxEvents_;
    mutable Mutex mutex_;
    std::size_t dropped_ DCL1_GUARDED_BY(mutex_) = 0;
    std::vector<Event> events_ DCL1_GUARDED_BY(mutex_);
};

/**
 * Per-thread trace sink consulted by the attribution slow path. Null
 * (no trace) by default; GpuSystem::enableTrace points it at the
 * system's exporter for the thread running that simulation.
 */
TraceExport *&tlsTraceSink();

} // namespace dcl1::stats

#endif // DCL1_STATS_TRACE_EXPORT_HH
