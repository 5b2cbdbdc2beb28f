/**
 * @file
 * Reproduces Figure 11: IPC speedup of authen-then-commit and
 * commit+fetch over authen-then-issue with the 64-entry RUU. The paper
 * reports commit improving 10 benchmarks by 10-50% and commit+fetch
 * about 10% on five benchmarks.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

using namespace acp;

int
main()
{
    std::printf("Figure 11: IPC speedup over authen-then-issue, "
                "64-entry RUU, 256KB L2\n");

    std::vector<std::string> all_names = workloads::allNames();

    std::vector<bench::Scheme> schemes = {
        {"commit", core::AuthPolicy::kAuthThenCommit},
        {"commit+fetch", core::AuthPolicy::kCommitPlusFetch},
    };

    sim::SimConfig cfg = sim::paperConfig();
    cfg.ruuSize = 64;
    bench::ratioTable("Fig 11", bench::kSpeedupOverIssue, all_names, schemes,
                      cfg);
    return 0;
}
