/**
 * @file
 * Open-loop arrivals for the serving layer.
 *
 * A serve run offers a stream of kernel jobs to the machine regardless
 * of whether it keeps up (open loop): arrival times come from a job
 * trace or from the Poisson process here, never from completion
 * feedback. The process is a pure function of its constructor
 * arguments, so the same (rate, seed) pair always yields the same
 * schedule — the foundation of the byte-identical job-log guarantee.
 */

#ifndef DCL1_SERVE_ARRIVAL_HH
#define DCL1_SERVE_ARRIVAL_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"

namespace dcl1::serve
{

/**
 * Poisson arrivals at @p jobsPerKcycle jobs per kilocycle:
 * exponential interarrival times via inverse-CDF sampling from a
 * seed-derived Rng, rounded to whole cycles with a floor of 1.
 */
class PoissonArrivals
{
  public:
    PoissonArrivals(double jobsPerKcycle, std::uint64_t seed);

    /**
     * Gap between the previous arrival and the next one; cycleNever
     * when the gap does not fit in a Cycle.
     */
    Cycle nextGap();

    double meanGapCycles() const { return meanGap_; }

  private:
    double meanGap_;
    Rng rng_;
};

} // namespace dcl1::serve

#endif // DCL1_SERVE_ARRIVAL_HH
