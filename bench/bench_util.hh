/**
 * @file
 * Shared harness for the paper-reproduction benchmarks, built on the
 * acp::exp experiment API: each figure/table declares an exp::Request
 * (workloads × config variants) and hands it to exp::submit(), which
 * executes points on a thread pool and persists results in the
 * ./acp_store result store: one append-only file, keyed on a digest
 * of the full configuration, which concurrent bench processes may
 * share (src/exp/result_store.hh).
 *
 * Environment knobs (a malformed value is fatal and names the knob):
 *
 *   ACP_JOBS             worker threads         (default or 0: all cores)
 *   REPRO_MEASURE_INSTS  timed window per run         (default 60000)
 *   REPRO_WARMUP_INSTS   functional warmup per run    (default 30000)
 *   REPRO_WS_BYTES       workload working set, e.g. 2M (default 2 MiB)
 *
 * The paper simulates 400M instructions per SPEC benchmark on a farm;
 * the defaults here reproduce the *shape* of every figure in minutes
 * on a laptop. Raise the knobs for tighter numbers.
 */

#ifndef ACP_BENCH_BENCH_UTIL_HH
#define ACP_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "core/auth_policy.hh"
#include "exp/request.hh"
#include "exp/submit.hh"
#include "obs/manifest.hh"
#include "obs/path_profiler.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "workloads/workloads.hh"

namespace acp::bench
{

/** The count in environment variable @p name, or @p fallback when it
 *  is unset; a malformed value is fatal and names the variable. */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    if (const char *value = std::getenv(name))
        parseCount(name, value, fallback);
    return fallback;
}

inline std::uint64_t
measureInsts()
{
    return envU64("REPRO_MEASURE_INSTS", 60000);
}

inline std::uint64_t
warmupInsts()
{
    return envU64("REPRO_WARMUP_INSTS", 30000);
}

/** REPRO_WS_BYTES takes acpsim --ws's size syntax (e.g. 2M). */
inline std::uint64_t
workingSetBytes()
{
    const char *value = std::getenv("REPRO_WS_BYTES");
    return value ? parseSize("REPRO_WS_BYTES", value) : 2ULL << 20;
}

/** Workload parameters honoring the scale knobs. */
inline workloads::WorkloadParams
paperParams()
{
    workloads::WorkloadParams params;
    params.workingSetBytes = workingSetBytes();
    return params;
}

/** A Request pre-loaded with the paper config, scale knobs, window
 *  and the shared result store: exp::submit runs it on ACP_JOBS
 *  threads and keeps results in ./acp_store, so derived figures reuse
 *  their siblings' runs and re-running a bench binary is cheap (delete
 *  the directory to force fresh measurements). */
inline exp::Request
paperRequest(const sim::SimConfig &cfg = sim::paperConfig())
{
    exp::Request req;
    req.base(cfg).params(paperParams()).window(warmupInsts(),
                                               measureInsts());
    return req;
}

/** Pretty separator. */
inline void
rule(char ch = '-', int n = 72)
{
    for (int i = 0; i < n; ++i)
        std::putchar(ch);
    std::putchar('\n');
}

/** A named configuration variant in a figure. */
struct Scheme
{
    const char *label;
    core::AuthPolicy policy;
};

/** The six evaluated schemes of Fig. 7 in the paper's order. */
inline std::vector<Scheme>
fig7Schemes()
{
    return {
        {"issue", core::AuthPolicy::kAuthThenIssue},
        {"write", core::AuthPolicy::kAuthThenWrite},
        {"commit", core::AuthPolicy::kAuthThenCommit},
        {"fetch", core::AuthPolicy::kAuthThenFetch},
        {"commit+fetch", core::AuthPolicy::kCommitPlusFetch},
        {"commit+obf", core::AuthPolicy::kCommitPlusObfuscation},
    };
}

/**
 * Build the (reference policy + schemes) × workloads sweep every
 * ratio table is made of: variant 0 is @p reference, variants 1..S
 * are the schemes. Runs as one parallel batch.
 */
inline std::vector<exp::Result>
runSchemes(const std::vector<std::string> &names,
           const std::vector<Scheme> &schemes, sim::SimConfig base_cfg,
           core::AuthPolicy reference, std::vector<exp::Point> *out_points
           = nullptr)
{
    exp::Request req = paperRequest(base_cfg);
    req.workloads(names);
    req.variant(core::policyName(reference),
                [reference](sim::SimConfig &cfg) {
                    cfg.policy = reference;
                });
    for (const Scheme &scheme : schemes)
        req.variant(scheme.label, [policy = scheme.policy](
                                      sim::SimConfig &cfg) {
            cfg.policy = policy;
        });
    if (out_points)
        *out_points = req.points();
    return exp::submit(req).results;
}

/** How a ratio table compares each scheme with its reference run. */
struct Ratio
{
    core::AuthPolicy reference;
    /** Printed in parentheses after the table's title. */
    const char *caption;
    /** A speedup cell shows IPC(scheme) / IPC(reference) - 1, signed,
     *  and the table ends with how many workloads each scheme speeds up
     *  by 10%, 20% and 30%; otherwise a cell shows the ratio itself.
     *  Both in percent. */
    bool speedup;
};

/** Figs. 7, 10 and 12: IPC normalized to decryption only. */
inline constexpr Ratio kNormalizedIpc{
    core::AuthPolicy::kBaseline,
    "baseline: decryption only, no authentication", false};

/** Figs. 8, 11 and 13: IPC speedup over authen-then-issue. */
inline constexpr Ratio kSpeedupOverIssue{
    core::AuthPolicy::kAuthThenIssue, "IPC speedup over authen-then-issue",
    true};

/**
 * Run the (@p ratio's reference + schemes) × workloads sweep and print
 * it as a paper-style table: one row per workload, one column per
 * scheme, each cell IPC(scheme) / IPC(reference) as @p ratio shows it,
 * and a final average row. Returns each scheme's average ratio.
 */
inline std::vector<double>
ratioTable(const char *title, const Ratio &ratio,
           const std::vector<std::string> &names,
           const std::vector<Scheme> &schemes, sim::SimConfig base_cfg)
{
    std::vector<exp::Result> results =
        runSchemes(names, schemes, base_cfg, ratio.reference);
    const std::size_t stride = schemes.size() + 1;
    const int width = 16 + 14 * int(schemes.size());
    auto cell = [&ratio](double r) {
        if (ratio.speedup)
            std::printf(" %+11.1f%%", 100.0 * (r - 1.0));
        else
            std::printf(" %12.1f%%", 100.0 * r);
    };

    std::printf("\n%s (%s)\n", title, ratio.caption);
    bench::rule('-', width);
    std::printf("%-10s", "bench");
    for (const Scheme &scheme : schemes)
        std::printf(" %13s", scheme.label);
    std::printf("\n");
    bench::rule('-', width);

    std::vector<std::vector<double>> columns(schemes.size());
    for (std::size_t w = 0; w < names.size(); ++w) {
        double ref = results[w * stride].run.ipc;
        std::printf("%-10s", names[w].c_str());
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            double ipc = results[w * stride + 1 + s].run.ipc;
            columns[s].push_back(ref > 0 ? ipc / ref : 0.0);
            cell(columns[s].back());
        }
        std::printf("\n");
    }
    bench::rule('-', width);
    std::printf("%-10s", "average");
    std::vector<double> avgs;
    for (const std::vector<double> &column : columns) {
        double sum = 0;
        for (double v : column)
            sum += v;
        avgs.push_back(column.empty() ? 0.0 : sum / double(column.size()));
        cell(avgs.back());
    }
    std::printf("\n");
    if (!ratio.speedup)
        return avgs;
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        int over[3] = {};
        const double floors[3] = {1.10, 1.20, 1.30};
        for (double v : columns[s])
            for (int i = 0; i < 3; ++i)
                over[i] += v >= floors[i];
        std::printf("  %-14s benchmarks improved >10%%: %d, >20%%: %d, "
                    ">30%%: %d\n", schemes[s].label, over[0], over[1],
                    over[2]);
    }
    return avgs;
}

/**
 * Write @p points and @p results to @p path as an
 * "acp-bench-baseline-v1" recording, the schema tools/bench_diff.py
 * diffs: the manifest (provenance the diff reports, never compares),
 * window knobs, and one line per point with its workload, the keys
 * @p identify adds ("policy" at least), IPC, cycles, instructions,
 * wall seconds and, when profiled, each path segment's mean per
 * demand transaction. Fatal on a failed write.
 */
inline void
writeRecording(
    const char *path, const std::vector<exp::Point> &points,
    const std::vector<exp::Result> &results,
    const std::function<void(json::Writer &, const exp::Point &)> &identify)
{
    double wall_total = 0.0;
    std::uint64_t cycles_total = 0;
    bool written = json::writeFile(path, [&](json::Writer &w) {
        w.beginObject();
        w.key("version").value("acp-bench-baseline-v1");
        w.key("manifest");
        obs::writeManifest(w, obs::manifest());
        w.key("measureInsts").value(measureInsts());
        w.key("warmupInsts").value(warmupInsts());
        w.key("workingSetBytes").value(workingSetBytes());
        w.key("points").beginArray();
        for (std::size_t i = 0; i < results.size(); ++i) {
            const exp::Result &r = results[i];
            wall_total += r.wallSeconds;
            cycles_total += r.run.cycles;
            w.beginObject(json::kOneLine);
            w.key("workload").value(points[i].workload);
            identify(w, points[i]);
            w.key("ipc").fixed(r.run.ipc, 6).key("cycles").value(r.run.cycles);
            w.key("insts").value(r.run.insts);
            w.key("wallSeconds").fixed(r.wallSeconds, 3);
            if (r.hasProfile) {
                const std::uint64_t demand = r.profile.demandTxns;
                w.key("demandTxns").value(demand);
                w.key("segMeans").beginObject();
                for (unsigned s = 0; s < obs::kNumPathSegments; ++s) {
                    double cycles = double(r.profile.demandSegCycles[s]);
                    w.key(obs::pathSegmentName(obs::PathSegment(s)))
                        .fixed(demand ? cycles / double(demand) : 0.0, 3);
                }
                w.endObject();
            }
            w.endObject();
        }
        w.endArray();
        w.endObject();
    });
    if (!written)
        acp_fatal("cannot write %s: %s", path, std::strerror(errno));

    std::printf("\nwrote %s (%zu points, %.1fs simulated wall time)\n",
                path, results.size(), wall_total);
    // Loop-throughput summary: how fast the simulator chews through
    // simulated cycles. This is the number the event loop moves; the
    // recorded IPC and segment means must not move at all.
    std::printf("throughput: %.0f simulated cycles per wall second "
                "(%llu cycles / %.1fs)\n",
                wall_total > 0 ? double(cycles_total) / wall_total : 0.0,
                (unsigned long long)cycles_total, wall_total);
}

/** Geometric-mean helper used for "average" rows (ratios). */
inline double
geomean(const std::vector<double> &vals)
{
    if (vals.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : vals)
        log_sum += std::log(v);
    return std::exp(log_sum / double(vals.size()));
}

} // namespace acp::bench

#endif // ACP_BENCH_BENCH_UTIL_HH
