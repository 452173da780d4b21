#include "layer_drivers.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "core/gpu_system.hh"
#include "core/organization.hh"
#include "mem/replication_tracker.hh"
#include "noc/crossbar.hh"
#include "workload/synthetic.hh"

namespace dcl1::perfbench
{

namespace
{

/** Timed repeats per driver; the median is reported. */
constexpr int kRepeats = 5;

/** Keeps driver results observable so no timed loop is elided. */
volatile std::uint64_t gSink = 0;

/**
 * Warp a core's stream is read for at @p now: a plain rotation, which
 * visits every warp as the cores' round-robin schedulers do.
 */
WarpId
warpAt(const workload::SyntheticSource &src, CoreId core, Cycle now)
{
    return static_cast<WarpId>(now % src.warpsPerCore(core));
}

/** One pre-generated L1 access. */
struct L1Access
{
    mem::MemOp op = mem::MemOp::Read;
    Addr addr = 0;
    std::uint32_t bytes = 0;
    CoreId core = 0;
};

/**
 * Per-bank L1 access streams holding @p total accesses: core c's
 * stream goes to its private L1, or to its home DC-L1 node on DC-L1
 * designs. Only reads and writes reach an L1 bank.
 */
std::vector<std::vector<L1Access>>
l1Streams(const Cell &cell, std::uint64_t total)
{
    const bool dcl1 = cell.design.topology == core::Topology::DcL1;
    std::optional<core::Organization> org;
    if (dcl1)
        org.emplace(cell.design, cell.sys);
    const std::uint32_t cores = cell.sys.numCores;
    std::vector<std::vector<L1Access>> streams(
        dcl1 ? cell.design.numNodes : cores);

    workload::SyntheticSource src(
        core::effectiveWorkload(cell.design, cell.app), cores,
        cell.sys.lineBytes, cell.sys.seed);
    workload::WarpInstr instr;
    std::uint64_t n = 0;
    for (Cycle now = 0; n < total; ++now) {
        for (CoreId c = 0; c < cores; ++c) {
            src.nextInstr(c, warpAt(src, c, now), now, instr);
            for (std::uint8_t k = 0; k < instr.numAccesses; ++k) {
                const workload::MemAccessDesc &a = instr.accesses[k];
                if (a.op != mem::MemOp::Read && a.op != mem::MemOp::Write)
                    continue;
                const std::uint32_t bank = dcl1 ? org->homeNode(c, a.addr)
                                                : c;
                streams[bank].push_back({a.op, a.addr, a.bytes, c});
                ++n;
            }
        }
    }
    return streams;
}

/**
 * The benchmark's CacheListener wrapper for the replication directory:
 * while the banks run it only records each event, so the bank timing
 * carries no directory cost; replay() then times the directory alone,
 * calling it through the CacheListener interface as the banks do.
 */
class RecordingListener : public mem::CacheListener
{
  public:
    void
    onInstall(std::uint32_t cache_id, LineAddr line) override
    {
        events_.push_back({Kind::Install, cache_id, line});
    }

    void
    onEvict(std::uint32_t cache_id, LineAddr line) override
    {
        events_.push_back({Kind::Evict, cache_id, line});
    }

    void
    onMiss(std::uint32_t cache_id, LineAddr line) override
    {
        events_.push_back({Kind::Miss, cache_id, line});
    }

    void clear() { events_.clear(); }
    std::size_t size() const { return events_.size(); }

    /** Feed every recorded event to @p target; returns elapsed ns. */
    double
    replay(mem::CacheListener &target) const
    {
        const auto start = HostClock::now();
        for (const Event &e : events_) {
            switch (e.kind) {
              case Kind::Install:
                target.onInstall(e.cache, e.line);
                break;
              case Kind::Evict:
                target.onEvict(e.cache, e.line);
                break;
              case Kind::Miss:
                target.onMiss(e.cache, e.line);
                break;
            }
        }
        return nsSince(start);
    }

  private:
    enum class Kind : std::uint8_t { Install, Evict, Miss };

    struct Event
    {
        Kind kind;
        std::uint32_t cache;
        LineAddr line;
    };

    std::vector<Event> events_;
};

/** One bank under drive, with the fixed-latency memory behind it. */
struct BankDrive
{
    std::unique_ptr<mem::CacheBank> bank;
    const std::vector<L1Access> *stream = nullptr;
    std::size_t next = 0;
    mem::MemRequestPtr pending; ///< blocked access awaiting retry
    std::deque<std::pair<Cycle, mem::MemRequestPtr>> memory;
};

} // anonymous namespace

double
nsSince(HostClock::time_point start)
{
    return std::chrono::duration<double, std::nano>(HostClock::now() -
                                                    start)
        .count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
timeWorkloadNsPerInstr(const Cell &cell)
{
    constexpr std::uint64_t kInstrs = 1'000'000;
    const workload::WorkloadParams app =
        core::effectiveWorkload(cell.design, cell.app);
    const std::uint32_t cores = cell.sys.numCores;

    std::vector<double> ns;
    std::uint64_t sink = 0;
    for (int r = 0; r < kRepeats; ++r) {
        workload::SyntheticSource src(app, cores, cell.sys.lineBytes,
                                      cell.sys.seed);
        workload::WarpInstr instr;
        const auto start = HostClock::now();
        for (std::uint64_t i = 0; i < kInstrs; ++i) {
            const CoreId c = static_cast<CoreId>(i % cores);
            const Cycle now = i / cores;
            src.nextInstr(c, warpAt(src, c, now), now, instr);
            sink += instr.numAccesses;
        }
        ns.push_back(nsSince(start) / double(kInstrs));
    }
    gSink = sink;
    return median(ns);
}

L1Timing
timeL1AndTracker(const Cell &cell, const mem::CacheBankParams &geometry)
{
    constexpr std::uint64_t kAccesses = 300'000;
    // Fill latency below the L1, in core cycles. Shorter than the
    // machine's round trip on purpose: the MSHRs then rarely fill, so
    // the timed loop is spent in bank calls, not in blocked retries.
    constexpr Cycle kMemLatency = 30;

    const std::vector<std::vector<L1Access>> streams =
        l1Streams(cell, kAccesses);
    const auto banks = static_cast<std::uint32_t>(streams.size());

    L1Timing out;
    RecordingListener recorder;
    std::vector<double> bank_ns;
    for (int r = 0; r < kRepeats; ++r) {
        recorder.clear();
        std::vector<BankDrive> drives(banks);
        for (std::uint32_t b = 0; b < banks; ++b) {
            drives[b].bank =
                std::make_unique<mem::CacheBank>(geometry, b, &recorder);
            drives[b].stream = &streams[b];
        }

        const auto start = HostClock::now();
        bool active = true;
        for (Cycle now = 1; active; ++now) {
            active = false;
            for (BankDrive &d : drives) {
                mem::CacheBank &bank = *d.bank;
                while (!d.memory.empty() && d.memory.front().first <= now) {
                    bank.fill(std::move(d.memory.front().second), now);
                    d.memory.pop_front();
                }
                while (bank.takeCompleted(now)) {
                }
                while (auto down = bank.takeDownstream()) {
                    (*down)->isReply = true;
                    (*down)->payloadBytes =
                        (*down)->isWrite() ? 0 : geometry.lineBytes;
                    d.memory.emplace_back(now + kMemLatency,
                                          std::move(*down));
                }
                if (!d.pending && d.next < d.stream->size()) {
                    const L1Access &a = (*d.stream)[d.next++];
                    d.pending = mem::makeRequest(a.op, a.addr, a.bytes,
                                                 a.core, 0, now);
                }
                // Hit or Miss moves the request into the bank; Blocked
                // leaves it here for the next cycle.
                if (d.pending && bank.canAccept(now))
                    bank.access(d.pending, now);
                active = active || d.pending || bank.busy() ||
                         !d.memory.empty() ||
                         d.next < d.stream->size();
            }
        }
        bank_ns.push_back(nsSince(start));

        std::uint64_t accesses = 0;
        for (const BankDrive &d : drives)
            accesses += d.bank->accesses();
        out.accesses = accesses;
    }
    out.l1NsPerAccess = median(bank_ns) / double(out.accesses);

    out.trackerEvents = recorder.size();
    std::vector<double> tracker_ns;
    for (int r = 0; r < kRepeats; ++r) {
        mem::ReplicationTracker tracker(banks);
        tracker_ns.push_back(recorder.replay(tracker));
        gSink = tracker.totalMisses();
    }
    out.trackerNsPerEvent =
        out.trackerEvents ? median(tracker_ns) / double(out.trackerEvents)
                          : 0.0;
    return out;
}

double
timeXbarNsPerTick(const Cell &cell, double flits_per_input_cycle,
                  double flits_per_packet)
{
    constexpr Cycle kTicks = 20'000;

    const std::vector<core::XbarGeometry> inventory =
        core::crossbarInventory(cell.design, cell.sys);
    const core::XbarGeometry *largest = &inventory.front();
    for (const core::XbarGeometry &g : inventory)
        if (g.numInputs * g.numOutputs >
            largest->numInputs * largest->numOutputs)
            largest = &g;
    noc::XbarParams params;
    params.name = "perfbench.xbar";
    params.numInputs = largest->numInputs;
    params.numOutputs = largest->numOutputs;
    params.clockRatio = largest->clockRatio;

    // Traffic: control packets are one flit and line-carrying packets
    // four, mixed to the measured mean packet size.
    struct Inject
    {
        std::uint32_t src;
        std::uint32_t dst;
        std::uint32_t flits;
    };
    const double packet_prob =
        std::clamp(flits_per_input_cycle / flits_per_packet, 0.0, 1.0);
    const double long_share =
        std::clamp((flits_per_packet - 1.0) / 3.0, 0.0, 1.0);
    Rng rng(cell.sys.seed ^ 0x5851f42d4c957f2dull);
    std::vector<Inject> injects;
    std::vector<std::size_t> first_of(kTicks + 1, 0);
    for (Cycle t = 0; t < kTicks; ++t) {
        first_of[t] = injects.size();
        for (std::uint32_t in = 0; in < params.numInputs; ++in) {
            if (!rng.chance(packet_prob))
                continue;
            const auto dst =
                static_cast<std::uint32_t>(rng.below(params.numOutputs));
            injects.push_back({in, dst, rng.chance(long_share) ? 4u : 1u});
        }
    }
    first_of[kTicks] = injects.size();

    std::vector<double> ns;
    for (int r = 0; r < kRepeats; ++r) {
        noc::Crossbar xbar(params);
        std::uint64_t ejected = 0;
        const auto start = HostClock::now();
        for (Cycle t = 0; t < kTicks; ++t) {
            for (std::size_t i = first_of[t]; i < first_of[t + 1]; ++i) {
                const Inject &inj = injects[i];
                if (!xbar.canInject(inj.src))
                    continue; // backpressure drops the offer
                noc::Packet pkt;
                pkt.src = inj.src;
                pkt.dst = inj.dst;
                pkt.flits = inj.flits;
                xbar.inject(std::move(pkt));
            }
            xbar.tick();
            for (std::uint32_t o = 0; o < params.numOutputs; ++o)
                while (xbar.eject(o))
                    ++ejected;
        }
        ns.push_back(nsSince(start) / double(kTicks));
        gSink = ejected;
    }
    return median(ns);
}

} // namespace dcl1::perfbench
