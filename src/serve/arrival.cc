#include "serve/arrival.hh"

#include <cmath>

#include "common/log.hh"

namespace dcl1::serve
{

PoissonArrivals::PoissonArrivals(double jobsPerKcycle, std::uint64_t seed)
    : meanGap_(1000.0 / jobsPerKcycle), rng_(seed)
{
    // Also refuses a rate so small that the mean gap overflows.
    if (!(meanGap_ > 0.0) || !std::isfinite(meanGap_))
        fatal("Poisson arrival rate must be finite and > 0 (got %g)",
              jobsPerKcycle);
}

Cycle
PoissonArrivals::nextGap()
{
    // Inverse CDF of Exp(1/meanGap). uniform() is in [0, 1), so the
    // log argument stays strictly positive.
    const double u = rng_.uniform();
    const double gap = -std::log(1.0 - u) * meanGap_;
    const double rounded = std::floor(gap + 0.5);
    if (rounded < 1.0)
        return 1;
    // 2^64 is one past the last Cycle; converting it or more is
    // undefined.
    if (rounded >= 0x1p64)
        return cycleNever;
    return static_cast<Cycle>(rounded);
}

} // namespace dcl1::serve
