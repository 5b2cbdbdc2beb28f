/**
 * @file
 * Multi-core scaling recorder: runs memory-bound kernels at 1, 2 and
 * 4 cores (identical workload per core, shared secure memory
 * controller) under the baseline and authen-then-commit policies and
 * writes BENCH_multicore.json at the repo root.
 *
 * The interesting number is the aggregate-IPC scaling ratio: N cores
 * through one bus, one DRAM and one authentication engine commit less
 * than N× the single-core rate, and the gap *between* the baseline
 * and commit columns says how much of the loss is the auth engine's
 * shared verify bandwidth rather than plain bus/DRAM contention —
 * the beyond-the-paper question DESIGN.md §9 poses.
 *
 * Regenerate with:
 *
 *   tools/record_bench.sh BENCH_multicore.json --bench=multicore_scaling
 *
 * The sweep bypasses the result store, so every run here is a fresh
 * measurement and no ./acp_store is read or left behind.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"

using namespace acp;

int
main(int argc, char **argv)
{
    const char *out_path = argc > 1 ? argv[1] : "BENCH_multicore.json";

    const std::vector<std::string> names = {"mcf", "gcc", "twolf"};
    const std::vector<std::pair<std::string, core::AuthPolicy>> policies =
        {{"baseline", core::AuthPolicy::kBaseline},
         {"commit", core::AuthPolicy::kAuthThenCommit}};
    const std::vector<unsigned> core_counts = {1, 2, 4};

    std::printf("Recording multi-core scaling\n");
    std::printf("(window: %llu measured instructions per core, %llu "
                "warmup, %lluKB working set per array)\n",
                (unsigned long long)bench::measureInsts(),
                (unsigned long long)bench::warmupInsts(),
                (unsigned long long)bench::workingSetBytes() / 1024);

    // One variant per (policy, core count), policy-major, labelled
    // "commit@2c".
    exp::Request sweep = bench::paperRequest();
    sweep.workloads(names);
    for (const auto &[name, policy] : policies)
        for (unsigned n : core_counts)
            sweep.variant(name + "@" + std::to_string(n) + "c",
                          [policy, n](sim::SimConfig &c) {
                              c.policy = policy;
                              c.numCores = n;
                          });
    sweep.store.clear();

    std::vector<exp::Point> points = sweep.points();
    std::vector<exp::Result> results = bench::run(sweep);

    // Console summary: aggregate-IPC scaling vs the 1-core run of the
    // same (workload, policy) column. Point layout:
    // ((w * policies) + v) * coreCounts + c.
    const std::size_t n_var = policies.size(), n_cores = core_counts.size();
    std::printf("\n%-10s %-10s", "workload", "policy");
    for (unsigned n : core_counts)
        std::printf("  ipc@%uc  scale", n);
    std::printf("\n");
    bench::rule('-', 66);
    for (std::size_t w = 0; w < names.size(); ++w) {
        for (std::size_t v = 0; v < n_var; ++v) {
            std::size_t base = (w * n_var + v) * n_cores;
            std::printf("%-10s %-10s", names[w].c_str(),
                        policies[v].first.c_str());
            double one = results[base].run.ipc;
            for (std::size_t c = 0; c < n_cores; ++c) {
                double ipc = results[base + c].run.ipc;
                std::printf(" %6.3f  %4.2fx", ipc,
                            one > 0 ? ipc / one : 0.0);
            }
            std::printf("\n");
        }
    }

    // Same schema as BENCH_event_loop.json so tools/bench_diff.py can
    // diff two multicore recordings; the "policy" key is the point
    // label ("commit@2c"), which keeps (workload, policy) unique
    // across core counts.
    bench::writeRecording(out_path, points, results,
                          [](json::Writer &w, const exp::Point &point) {
                              w.key("policy").value(point.label);
                              w.key("cores").value(point.cfg.numCores);
                          });
    return 0;
}
