/**
 * @file
 * Host-phase slices for the Chrome trace exporter.
 *
 * Bridges the prof band's aggregate phase tree into TraceExport "X"
 * slices so a --trace run can show *host* time next to the simulated
 * tracks. A finished Report has durations but no timestamps (it is an
 * aggregate, not an event log), so the export lays the tree out as a
 * flame chart: each phase becomes one slice whose span is its total
 * wall time, children packed left-to-right inside their parent. The
 * result reads like a profiler flame graph in the trace's host
 * process, apart from the simulated tracks.
 */

#ifndef DCL1_STATS_PROF_TRACE_HH
#define DCL1_STATS_PROF_TRACE_HH

#include "prof/prof.hh"
#include "stats/trace_export.hh"

namespace dcl1::stats
{

/**
 * Append @p report's phase tree to @p trace as nested host slices
 * (timestamps in microseconds of host wall time, laid out
 * flame-chart style from t=0).
 */
void exportHostPhases(TraceExport &trace, const prof::Report &report);

} // namespace dcl1::stats

#endif // DCL1_STATS_PROF_TRACE_HH
