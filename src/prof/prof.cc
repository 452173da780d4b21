#include "prof/prof.hh"

#include <cinttypes>

#include "common/log.hh"

namespace dcl1::prof
{

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Build:
        return "build";
      case Phase::Run:
        return "run";
      case Phase::Dram:
        return "dram";
      case Phase::L2:
        return "l2";
      case Phase::Noc:
        return "noc";
      case Phase::Core:
        return "core";
      case Phase::Node:
        return "node";
      case Phase::Telemetry:
        return "telemetry";
      case Phase::Check:
        return "check";
      case Phase::Drain:
        return "drain";
    }
    return "?";
}

const char *
counterName(Counter counter)
{
    switch (counter) {
      case Counter::MemReqAlloc:
        return "memreq_alloc";
      case Counter::TickCycles:
        return "tick_cycles";
      case Counter::QuiescentDram:
        return "quiescent_dram_ticks";
      case Counter::WaitingDram:
        return "waiting_dram_ticks";
      case Counter::QuiescentXbar:
        return "quiescent_xbar_ticks";
      case Counter::QuiescentCore:
        return "quiescent_core_ticks";
      case Counter::StalledCore:
        return "stalled_core_ticks";
      case Counter::QuiescentNode:
        return "quiescent_node_ticks";
    }
    return "?";
}

Profiler::Profiler()
{
    // Synthetic root: every top-level phase is one of its children,
    // so the flattened report is a forest of depth-0 phases.
    Node root;
    for (auto &c : root.child)
        c = -1;
    nodes_.push_back(root);
    stack_.push_back(0);
    // A profiled job opens and closes a handful of distinct
    // (parent, phase) scopes; sizing for the full taxonomy squared
    // keeps the lazy child allocation out of the measured loop.
    nodes_.reserve(1 + kPhaseCount * kPhaseCount);
}

std::int32_t
Profiler::childOf(std::int32_t parent, Phase phase)
{
    const auto slot = static_cast<std::size_t>(phase);
    std::int32_t idx = nodes_[static_cast<std::size_t>(parent)].child[slot];
    if (idx >= 0)
        return idx;
    Node node;
    node.phase = phase;
    node.parent = parent;
    for (auto &c : node.child)
        c = -1;
    idx = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(node);
    nodes_[static_cast<std::size_t>(parent)].child[slot] = idx;
    return idx;
}

void
Profiler::enter(Phase phase)
{
    stack_.push_back(childOf(stack_.back(), phase));
}

void
Profiler::exit(std::uint64_t ns)
{
    if (stack_.size() <= 1)
        panic("prof: scope exit with no open scope");
    Node &node = nodes_[static_cast<std::size_t>(stack_.back())];
    node.count += 1;
    node.totalNs += ns;
    stack_.pop_back();
}

void
Profiler::flatten(std::int32_t index, std::uint8_t depth,
                  Report &out) const
{
    const Node &node = nodes_[static_cast<std::size_t>(index)];
    std::uint64_t child_ns = 0;
    for (const std::int32_t c : node.child)
        if (c >= 0)
            child_ns += nodes_[static_cast<std::size_t>(c)].totalNs;
    ReportNode rn;
    rn.depth = depth;
    rn.phase = node.phase;
    rn.count = node.count;
    rn.totalNs = node.totalNs;
    rn.selfNs = node.totalNs > child_ns ? node.totalNs - child_ns : 0;
    out.nodes.push_back(rn);
    // Pre-order children in taxonomy order: stable across runs, so
    // reports diff cleanly.
    for (const std::int32_t c : node.child)
        if (c >= 0)
            flatten(c, static_cast<std::uint8_t>(depth + 1), out);
}

Report
Profiler::report() const
{
    Report out;
    out.enabled = true;
    const Node &root = nodes_[0];
    for (const std::int32_t c : root.child)
        if (c >= 0)
            flatten(c, 0, out);
    for (std::size_t i = 0; i < kCounterCount; ++i)
        out.counters[i] = counters_[i];
    return out;
}

std::uint64_t
Report::coveredNs() const
{
    std::uint64_t total = 0;
    for (const ReportNode &n : nodes)
        if (n.depth == 0)
            total += n.totalNs;
    return total;
}

double
Report::coverage() const
{
    if (wallNs == 0)
        return 0.0;
    return static_cast<double>(coveredNs()) / static_cast<double>(wallNs);
}

void
Report::writeTable(std::FILE *out) const
{
    const double wall_ms = static_cast<double>(wallNs) / 1e6;
    std::fprintf(out,
                 "host phases (wall %.1f ms, %.1f%% attributed):\n",
                 wall_ms, 100.0 * coverage());
    std::fprintf(out, "  %-22s %12s %12s %7s %12s\n", "phase",
                 "total ms", "self ms", "%wall", "count");
    for (const ReportNode &n : nodes) {
        std::string label(static_cast<std::size_t>(n.depth) * 2, ' ');
        label += phaseName(n.phase);
        const double share =
            wallNs ? 100.0 * static_cast<double>(n.selfNs) /
                         static_cast<double>(wallNs)
                   : 0.0;
        std::fprintf(out, "  %-22s %12.3f %12.3f %6.1f%% %12" PRIu64 "\n",
                     label.c_str(),
                     static_cast<double>(n.totalNs) / 1e6,
                     static_cast<double>(n.selfNs) / 1e6, share,
                     n.count);
    }
    bool any = false;
    for (std::size_t i = 0; i < kCounterCount; ++i)
        any = any || counters[i] != 0;
    if (!any)
        return;
    std::fprintf(out, "  counters:\n");
    for (std::size_t i = 0; i < kCounterCount; ++i)
        if (counters[i] != 0)
            std::fprintf(out, "    %-24s %14" PRIu64 "\n",
                         counterName(static_cast<Counter>(i)),
                         counters[i]);
}

std::string
Report::json() const
{
    std::string out = csprintf(
        "{\"schema\":\"dcl1-prof-v1\",\"wall_ns\":%" PRIu64
        ",\"covered_ns\":%" PRIu64 ",\"coverage\":%.4f,\"phases\":[",
        wallNs, coveredNs(), coverage());
    bool first = true;
    for (const ReportNode &n : nodes) {
        if (!first)
            out += ',';
        first = false;
        out += csprintf("{\"phase\":\"%s\",\"depth\":%u,\"count\":%" PRIu64
                        ",\"total_ns\":%" PRIu64 ",\"self_ns\":%" PRIu64
                        "}",
                        phaseName(n.phase),
                        static_cast<unsigned>(n.depth), n.count,
                        n.totalNs, n.selfNs);
    }
    out += "],\"counters\":{";
    first = true;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
        if (!first)
            out += ',';
        first = false;
        out += csprintf("\"%s\":%" PRIu64,
                        counterName(static_cast<Counter>(i)),
                        counters[i]);
    }
    out += "}}";
    return out;
}

namespace detail
{

thread_local Profiler *tlsProfiler = nullptr;

} // namespace detail

TlsGuard::TlsGuard(Profiler *profiler) : saved_(detail::tlsProfiler)
{
    detail::tlsProfiler = profiler;
}

TlsGuard::~TlsGuard()
{
    detail::tlsProfiler = saved_;
}

} // namespace dcl1::prof
