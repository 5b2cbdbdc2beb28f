/**
 * @file
 * Reproduces Figure 13: IPC speedup of authen-then-commit and
 * commit+fetch over authen-then-issue under hash-tree authentication.
 * The paper reports commit improving 7 benchmarks by 10-35% and
 * commit+fetch more than 10% on five.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

using namespace acp;

int
main()
{
    std::printf("Figure 13: IPC speedup over authen-then-issue with the "
                "memory authentication tree, 256KB L2\n");

    std::vector<std::string> all_names = workloads::allNames();

    std::vector<bench::Scheme> schemes = {
        {"commit", core::AuthPolicy::kAuthThenCommit},
        {"commit+fetch", core::AuthPolicy::kCommitPlusFetch},
    };

    sim::SimConfig cfg = sim::paperConfig();
    cfg.hashTreeEnabled = true;
    cfg.protectedBytes = cfg.memoryBytes;
    bench::speedupOverIssueTable("Fig 13", all_names, schemes, cfg);
    return 0;
}
