/**
 * @file
 * Reproduces Figure 8: IPC speedup of authen-then-commit,
 * authen-then-write and commit+fetch over authen-then-issue with the
 * 256KB L2. The paper reports ~12% average for commit (four benchmarks
 * above 20%), ~14% for write, and ~10% improvement on five benchmarks
 * for commit+fetch.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

using namespace acp;

int
main()
{
    std::printf("Figure 8: IPC speedup over authen-then-issue, 256KB L2\n");

    std::vector<std::string> all_names = workloads::allNames();

    std::vector<bench::Scheme> schemes = {
        {"commit", core::AuthPolicy::kAuthThenCommit},
        {"write", core::AuthPolicy::kAuthThenWrite},
        {"commit+fetch", core::AuthPolicy::kCommitPlusFetch},
    };
    bench::ratioTable("Fig 8", bench::kSpeedupOverIssue, all_names, schemes,
                      sim::paperConfig());
    return 0;
}
