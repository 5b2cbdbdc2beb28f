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

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "obs/manifest.hh"
#include "obs/path_profiler.hh"

using namespace acp;

namespace
{

/** Per-demand-transaction mean of one decomposition segment. */
double
segMean(const obs::PathProfile &profile, obs::PathSegment seg)
{
    if (profile.demandTxns == 0)
        return 0.0;
    return double(profile.demandSegCycles[unsigned(seg)]) /
           double(profile.demandTxns);
}

} // namespace

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

    std::FILE *out = std::fopen(out_path, "wb");
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", out_path);
        return 1;
    }

    std::fprintf(out, "{\n  \"version\": \"acp-bench-baseline-v1\",\n");
    // Provenance: which build/host recorded this baseline. Comparison
    // tools (tools/bench_diff.py) ignore the manifest; it exists so a
    // regression report can say what produced each side.
    std::fputs("  \"manifest\": ", out);
    obs::writeManifestJson(out, obs::manifest(), "  ");
    std::fputs(",\n", out);
    std::fprintf(out, "  \"measureInsts\": %llu,\n",
                 (unsigned long long)bench::measureInsts());
    std::fprintf(out, "  \"warmupInsts\": %llu,\n",
                 (unsigned long long)bench::warmupInsts());
    std::fprintf(out, "  \"workingSetBytes\": %llu,\n",
                 (unsigned long long)bench::workingSetBytes());
    std::fprintf(out, "  \"points\": [");

    double wall_total = 0.0;
    std::uint64_t cycles_total = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const exp::Point &point = points[i];
        const exp::Result &r = results[i];
        wall_total += r.wallSeconds;
        cycles_total += r.run.cycles;

        std::fprintf(out, "%s\n    {\"workload\": \"%s\", "
                     "\"policy\": \"%s\",\n",
                     i ? "," : "", point.workload.c_str(),
                     core::policyName(point.cfg.policy));
        std::fprintf(out, "     \"ipc\": %.6f, \"cycles\": %llu, "
                     "\"insts\": %llu, \"wallSeconds\": %.3f",
                     r.run.ipc, (unsigned long long)r.run.cycles,
                     (unsigned long long)r.run.insts, r.wallSeconds);
        if (r.hasProfile) {
            std::fprintf(out, ",\n     \"demandTxns\": %llu, "
                         "\"segMeans\": {",
                         (unsigned long long)r.profile.demandTxns);
            for (unsigned s = 0; s < obs::kNumPathSegments; ++s)
                std::fprintf(out, "%s\"%s\": %.3f", s ? ", " : "",
                             obs::pathSegmentName(obs::PathSegment(s)),
                             segMean(r.profile, obs::PathSegment(s)));
            std::fprintf(out, "}");
        }
        std::fprintf(out, "}");
    }
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);

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
    std::printf("\nwrote %s (%zu points, %.1fs simulated wall time)\n",
                out_path, results.size(), wall_total);
    // Loop-throughput summary: how fast the simulator chews through
    // simulated cycles. This is the number the event loop moves; IPC
    // and segment means must not move at all.
    std::printf("throughput: %.0f simulated cycles per wall second "
                "(%llu cycles / %.1fs)\n",
                wall_total > 0 ? double(cycles_total) / wall_total : 0.0,
                (unsigned long long)cycles_total, wall_total);
    return 0;
}
