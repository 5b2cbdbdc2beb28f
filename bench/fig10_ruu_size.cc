/**
 * @file
 * Reproduces Figure 10: normalized IPC with the RUU halved to 64
 * entries (256KB L2). The performance ranking must hold: issue <
 * commit+fetch < commit < write.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

using namespace acp;

int
main()
{
    std::printf("Figure 10: Normalized IPC, 64-entry RUU, 256KB L2\n");

    std::vector<std::string> all_names = workloads::allNames();

    std::vector<bench::Scheme> schemes = {
        {"issue", core::AuthPolicy::kAuthThenIssue},
        {"commit+fetch", core::AuthPolicy::kCommitPlusFetch},
        {"commit", core::AuthPolicy::kAuthThenCommit},
        {"write", core::AuthPolicy::kAuthThenWrite},
    };

    sim::SimConfig cfg = sim::paperConfig();
    cfg.ruuSize = 64;
    std::vector<double> avgs =
        bench::ratioTable("Fig 10 (all 18 workloads)", bench::kNormalizedIpc,
                          all_names, schemes, cfg);

    std::printf("\nRanking check (lowest to highest should be "
                "issue, commit+fetch, commit, write): %s\n",
                (avgs[0] <= avgs[1] && avgs[1] <= avgs[2] &&
                 avgs[2] <= avgs[3] + 0.02)
                    ? "HOLDS" : "see rows above");
    return 0;
}
