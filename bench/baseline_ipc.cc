/**
 * @file
 * Performance-trajectory baseline recorder: runs the Fig. 7 workload x
 * policy sweep with the path profiler attached and writes a machine-
 * readable snapshot (IPC, cycle counts, per-segment demand-path means,
 * wall-clock) to BENCH_event_loop.json (or the path given).
 *
 * The committed BENCH_event_loop.json is the reference point future
 * changes diff against (tools/bench_diff.py, CI's perf gate): an IPC
 * regression shows up as a ratio, and the per-segment means say
 * *which* part of the transaction path moved (bus queueing vs. DRAM
 * vs. verification). Regenerate with tools/record_bench.sh after any
 * intentional change to the simulated numbers and commit the new
 * file alongside it.
 *
 * Profiled points are uncacheable by design, so every run here is a
 * fresh measurement - wall-clock numbers are honest, never cache hits.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"

using namespace acp;

int
main(int argc, char **argv)
{
    const char *out_path = argc > 1 ? argv[1] : "BENCH_event_loop.json";

    std::printf("Recording performance baseline (fig7 sweep, profiled)\n");
    std::printf("(window: %llu measured instructions, %llu warmup, "
                "%lluKB working set per array)\n",
                (unsigned long long)bench::measureInsts(),
                (unsigned long long)bench::warmupInsts(),
                (unsigned long long)bench::workingSetBytes() / 1024);

    std::vector<std::string> names = workloads::intNames();
    std::vector<bench::Scheme> schemes = bench::fig7Schemes();

    sim::SimConfig cfg = bench::paperConfig();
    // Attach the profiler to every point so the baseline carries the
    // per-segment decomposition next to the IPC.
    cfg.profileEnabled = true;

    std::vector<exp::Point> points;
    std::vector<exp::Result> results = bench::runSchemes(
        names, schemes, cfg, core::AuthPolicy::kBaseline, &points);

    // Console summary: per-policy IPC geomean against the baseline.
    std::size_t stride = schemes.size() + 1;
    std::printf("\n%-14s %10s\n", "policy", "ipc ratio");
    bench::rule('-', 26);
    for (std::size_t s = 0; s <= schemes.size(); ++s) {
        std::vector<double> ratios;
        for (std::size_t w = 0; w < names.size(); ++w) {
            double base = results[w * stride].run.ipc;
            double ipc = results[w * stride + s].run.ipc;
            if (base > 0)
                ratios.push_back(ipc / base);
        }
        std::printf("%-14s %9.1f%%\n",
                    s == 0 ? "baseline" : schemes[s - 1].label,
                    100.0 * bench::geomean(ratios));
    }

    bench::writeRecording(out_path, points, results,
                          [](json::Writer &w, const exp::Point &point) {
                              w.key("policy").value(
                                  core::policyName(point.cfg.policy));
                          });
    return 0;
}
