/**
 * @file
 * Reproduces Figure 9: normalized IPC of commit + address obfuscation
 * for three re-map cache sizes. IPC should improve with re-map cache
 * size (fewer encrypted remap-entry fetches from external memory).
 *
 * Scaling note (see DESIGN.md): the paper sweeps 64KB/256KB/1MB
 * against SPEC-sized footprints; we sweep 8KB/32KB/128KB against the
 * laptop-scale working set, preserving the cache:table coverage ratio.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

using namespace acp;

int
main()
{
    std::printf("Figure 9: Normalized IPC, commit+obfuscation, three "
                "re-map cache sizes, 256KB L2\n");

    std::vector<std::string> all_names = workloads::allNames();

    const std::uint64_t sizes[] = {8 * 1024, 32 * 1024, 128 * 1024};

    // One batch: baseline + the three obfuscation variants per bench.
    exp::Request sweep = bench::paperRequest();
    sweep.workloads(all_names);
    sweep.variant("base", [](sim::SimConfig &cfg) {
        cfg.policy = core::AuthPolicy::kBaseline;
    });
    for (std::uint64_t size : sizes)
        sweep.variant("obf", [size](sim::SimConfig &cfg) {
            cfg.policy = core::AuthPolicy::kCommitPlusObfuscation;
            cfg.remapCache.sizeBytes = size;
        });
    std::vector<exp::Result> results = exp::submit(sweep).results;
    const std::size_t stride = 4;

    std::printf("\n%-10s %14s %14s %14s\n", "bench", "8KB remap$",
                "32KB remap$", "128KB remap$");
    bench::rule('-', 58);

    std::vector<double> sums(3, 0.0);
    for (std::size_t w = 0; w < all_names.size(); ++w) {
        double base = results[w * stride].run.ipc;
        std::printf("%-10s", all_names[w].c_str());
        for (int s = 0; s < 3; ++s) {
            double ipc = results[w * stride + 1 + s].run.ipc;
            double ratio = base > 0 ? ipc / base : 0.0;
            sums[s] += ratio;
            std::printf(" %13.1f%%", 100.0 * ratio);
        }
        std::printf("\n");
    }
    bench::rule('-', 58);
    std::printf("%-10s", "average");
    for (int s = 0; s < 3; ++s)
        std::printf(" %13.1f%%", 100.0 * sums[s] / double(all_names.size()));
    std::printf("\n\nExpected shape: IPC improves with re-map cache size "
                "(paper Fig. 9).\n");
    return 0;
}
