/**
 * @file
 * Policy explorer: run any workload under every authentication control
 * point — in parallel, via the acp::exp experiment API — and dump the
 * full statistics of the most interesting run: a guided tour of the
 * simulator's observability.
 *
 *   $ ./build/examples/policy_explorer [workload] [insts]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/auth_policy.hh"
#include "exp/request.hh"
#include "exp/submit.hh"
#include "workloads/workloads.hh"

using namespace acp;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "equake";
    std::uint64_t insts = argc > 2 ? std::strtoull(argv[2], nullptr, 0)
                                   : 40000;

    workloads::WorkloadParams params;
    params.workingSetBytes = 2 << 20;

    const std::vector<core::AuthPolicy> policies = {
        core::AuthPolicy::kBaseline,
        core::AuthPolicy::kAuthThenIssue,
        core::AuthPolicy::kAuthThenWrite,
        core::AuthPolicy::kAuthThenCommit,
        core::AuthPolicy::kAuthThenFetch,
        core::AuthPolicy::kCommitPlusFetch,
        core::AuthPolicy::kCommitPlusObfuscation,
    };

    exp::Request req;
    req.base(sim::paperConfig()).params(params).window(20000, insts).workload(name);
    for (core::AuthPolicy policy : policies)
        req.variant(core::policyName(policy),
                    [policy](sim::SimConfig &cfg) {
                        cfg.policy = policy;
                    });

    req.store.clear(); // ad-hoc exploration: always simulate
    exp::Submission sub = exp::submit(req);
    const std::vector<exp::Result> &results = sub.results;

    std::printf("%-22s %8s %10s %12s %12s %12s\n", "policy", "IPC",
                "L2 miss", "commitStall", "fetchStall", "relStall");
    for (std::size_t i = 0; i < policies.size(); ++i) {
        const exp::Result &res = results[i];
        auto counter = [&res](const char *key) -> unsigned long long {
            auto it = res.counters.find(key);
            return it == res.counters.end() ? 0 : it->second;
        };
        std::printf("%-22s %8.4f %10llu %12llu %12llu %12llu\n",
                    core::policyName(policies[i]), res.run.ipc,
                    counter("l2.misses"),
                    counter("core.auth_commit_stalls"),
                    counter("memctrl.fetch_gate_stalls"),
                    counter("core.store_release_stalls"));
    }

    std::printf("\nFull statistics for commit+fetch:\n%s",
                exp::statsText(results[5]).c_str());
    return 0;
}
