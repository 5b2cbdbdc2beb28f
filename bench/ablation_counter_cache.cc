/**
 * @file
 * Ablation: counter-cache (sequence-number cache of [19]) size. A
 * counter miss forces an extra external fetch before pad generation
 * can begin, so decryption stops overlapping the data fetch — the
 * property counter-mode designs exist for. Expectation: baseline
 * (decrypt-only) IPC degrades as the counter cache shrinks.
 *
 * The counter-cache geometry is part of the full-config cache key, so
 * (unlike under the old snprintf key, which silently dropped it) these
 * runs are safely cached.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

using namespace acp;

int
main()
{
    const std::vector<std::string> names = {"mcf", "art", "equake",
                                            "mgrid"};
    const std::uint64_t sizes[] = {2 * 1024, 8 * 1024, 32 * 1024};

    std::printf("Ablation: counter-cache size "
                "(absolute IPC, decrypt-only baseline policy)\n\n");
    std::printf("%-10s %12s %12s %12s\n", "bench", "2KB", "8KB", "32KB");
    bench::rule('-', 52);

    exp::Request sweep = bench::paperRequest();
    sweep.workloads(names);
    for (std::uint64_t size : sizes)
        sweep.variant("base", [size](sim::SimConfig &cfg) {
            cfg.policy = core::AuthPolicy::kBaseline;
            cfg.counterCache.sizeBytes = size;
        });
    std::vector<exp::Result> results = exp::submit(sweep).results;
    const std::size_t stride = 3;

    for (std::size_t w = 0; w < names.size(); ++w) {
        std::printf("%-10s", names[w].c_str());
        for (int s = 0; s < 3; ++s)
            std::printf(" %12.4f", results[w * stride + s].run.ipc);
        std::printf("\n");
    }
    std::printf("\nExpected: IPC non-decreasing with counter-cache size "
                "(fewer counter fetches,\nmore pad pre-computation "
                "overlap).\n");
    return 0;
}
