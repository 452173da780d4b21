#include "stats/prof_trace.hh"

#include <vector>

namespace dcl1::stats
{

void
exportHostPhases(TraceExport &trace, const prof::Report &report)
{
    // cursor[d] is the next free host-ns offset for a depth-d slice;
    // entering a node resets cursor[d+1] to its own start so children
    // pack left-to-right inside the parent span.
    std::vector<std::uint64_t> cursor{0};
    for (const prof::ReportNode &n : report.nodes) {
        const std::size_t d = n.depth;
        if (cursor.size() > d + 1)
            cursor.resize(d + 1);
        const std::uint64_t start = cursor[d];
        trace.hostSlice(prof::phaseName(n.phase), start / 1000,
                        (start + n.totalNs) / 1000);
        cursor[d] += n.totalNs;
        cursor.push_back(start);
    }
}

} // namespace dcl1::stats
