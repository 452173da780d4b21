/**
 * @file
 * Section VIII-A remaining sensitivity studies:
 *  - distributed CTA scheduler [28] under Sh40+C10+Boost,
 *  - 120-core system (Sh60+C10+Boost),
 *  - boosted baselines (2x L1 capacity, 2x NoC frequency, 2x flit
 *    width) with their model-estimated overheads.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "common/log.hh"
#include "power/cache_model.hh"
#include "power/xbar_model.hh"

using namespace dcl1;
using namespace dcl1::bench;

int
main()
{
    Harness h("Section VIII-A sensitivity studies",
              "CTA scheduling, system size, boosted baselines");

    const auto boost = core::clusteredDcl1(40, 10, true);
    const auto s_apps = h.apps(/*sensitive_only=*/true);

    {
        auto freq2x = core::baselineDesign();
        freq2x.name = "Base+2xNoC";
        freq2x.noc2ClockRatio = 1.0;
        h.prefetch({boost,
                    core::withDistributedCta(core::baselineDesign()),
                    core::withDistributedCta(boost),
                    core::withCapacityScale(core::baselineDesign(), 2.0),
                    freq2x},
                   s_apps);
    }

    header("distributed CTA scheduler (replication-sensitive avg)");
    {
        double rr = 0, dist = 0;
        for (const auto &app : s_apps) {
            rr += h.speedup(boost, app);
            // Both the design and its baseline use the distributed
            // scheduler (it reduces replication for both).
            const double b =
                h.run(core::withDistributedCta(core::baselineDesign()),
                      app)
                    .ipc;
            const double d =
                h.run(core::withDistributedCta(boost), app).ipc;
            dist += d / b;
        }
        columns("", {"RR-CTA", "DistCTA"});
        row("speedup", {rr / s_apps.size(), dist / s_apps.size()},
            "%8.2f");
        std::printf("paper: 1.75x under round-robin, 1.46x under the "
                    "distributed scheduler (locality lowers "
                    "replication)\n");
    }

    header("120-core system: Sh60+C10+Boost (sensitive avg)");
    {
        // The 120-core platform falls outside the Harness cache, so
        // this section runs its grid through the engine directly.
        core::SystemConfig big = core::SystemConfig::scaled(120, 48, 24);
        const auto d120 = core::clusteredDcl1(60, 10, true);
        exec::JobSet set;
        std::vector<std::pair<std::size_t, std::size_t>> cells;
        for (const auto &app : s_apps)
            cells.emplace_back(
                set.addCell(big, core::baselineDesign(), app.params,
                            h.opts()),
                set.addCell(big, d120, app.params, h.opts()));
        const auto results = runJobSet(set);
        double sum = 0;
        for (const auto &[bi, di] : cells) {
            if (!results[bi].ok() || !results[di].ok())
                panic("120-core run failed: %s",
                      (results[bi].ok() ? results[di] : results[bi])
                          .error.c_str());
            sum += results[di].metrics.ipc / results[bi].metrics.ipc;
        }
        std::printf("speedup %.2fx (paper: 1.67x on 120 cores vs 1.75x "
                    "on 80)\n", sum / s_apps.size());
    }

    header("boosted baselines (replication-sensitive avg)");
    {
        // 2x per-core L1 capacity.
        auto cache2x = core::withCapacityScale(core::baselineDesign(),
                                               2.0);
        // 2x NoC frequency.
        auto freq2x = core::baselineDesign();
        freq2x.name = "Base+2xNoC";
        freq2x.noc2ClockRatio = 1.0;
        double c = 0, f = 0, b = 0;
        for (const auto &app : s_apps) {
            c += h.speedup(cache2x, app);
            f += h.speedup(freq2x, app);
            b += h.speedup(boost, app);
        }
        columns("", {"2xL1$", "2xNoC", "C10+Bst"});
        row("speedup",
            {c / s_apps.size(), f / s_apps.size(), b / s_apps.size()},
            "%8.2f");

        power::CacheAreaModel cam;
        const auto a1 = cam.l1Breakdown(core::baselineDesign(), h.sys());
        const auto a2 = cam.l1Breakdown(cache2x, h.sys());
        std::printf("2xL1$ cache-area overhead: +%.0f%% (paper: "
                    "+84%%)\n",
                    100.0 * (a2.cacheArea / a1.cacheArea - 1.0));
        power::XbarModel xm;
        std::printf("2xNoC feasibility: the 80x32 crossbar tops out at "
                    "%.2f GHz < 1.4 GHz (paper: cannot run at 2x)\n",
                    xm.maxFrequencyGHz(80, 32));
        std::printf("paper: boosted baselines gain 33-36%%, ~22 "
                    "points below Sh40+C10+Boost\n");
    }
    return 0;
}
