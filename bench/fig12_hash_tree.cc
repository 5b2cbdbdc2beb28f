/**
 * @file
 * Reproduces Figure 12: normalized IPC of five schemes when the CHTree
 * memory authentication tree protects against replay (8KB dedicated
 * node cache, concurrent level verification). The baseline remains
 * decryption-only without authentication, so every scheme drops
 * compared to Fig. 7; the ranking is preserved, but the gaps between
 * write/commit/fetch compress because tree verification dominates the
 * authentication latency.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

using namespace acp;

int
main()
{
    std::printf("Figure 12: Normalized IPC with the memory "
                "authentication tree, 256KB L2\n");

    std::vector<std::string> all_names = workloads::allNames();

    std::vector<bench::Scheme> schemes = {
        {"issue", core::AuthPolicy::kAuthThenIssue},
        {"write", core::AuthPolicy::kAuthThenWrite},
        {"commit", core::AuthPolicy::kAuthThenCommit},
        {"fetch", core::AuthPolicy::kAuthThenFetch},
        {"commit+fetch", core::AuthPolicy::kCommitPlusFetch},
    };

    // The baseline run has hashTreeEnabled too, but the baseline
    // policy performs no verification, so the tree is inert there —
    // matching the paper's "decryption only" normalization.
    sim::SimConfig cfg = sim::paperConfig();
    cfg.hashTreeEnabled = true;
    cfg.protectedBytes = cfg.memoryBytes;
    bench::normalizedIpcTable("Fig 12 (all 18 workloads)", all_names,
                              schemes, cfg);

    std::printf("\nExpected shape: every bar lower than Fig. 7; issue "
                "slowest, write fastest,\nwrite/commit/fetch differences "
                "small (tree latency dominates).\n");
    return 0;
}
