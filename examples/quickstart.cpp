/**
 * @file
 * Quickstart: build a secure-processor system, run a workload under
 * two authentication control points, and compare IPC.
 *
 *   $ ./build/examples/quickstart [workload]
 *
 * Walks through the three-step API:
 *   1. configure   (sim::paperConfig() — the paper's Table 3 machine)
 *   2. instantiate (sim::System over an isa::Program)
 *   3. measure     (fast-forward warmup + timed window)
 */

#include <cstdio>
#include <string>

#include "core/auth_policy.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "workloads/workloads.hh"

using namespace acp;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "mcf";
    std::printf("workload: %s\n\n", name.c_str());

    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;

    for (core::AuthPolicy policy : {core::AuthPolicy::kBaseline,
                                    core::AuthPolicy::kAuthThenIssue,
                                    core::AuthPolicy::kAuthThenCommit}) {
        // 1. Configure: the paper's machine, plus a policy.
        sim::SimConfig cfg = sim::paperConfig();
        cfg.policy = policy;

        // 2. Instantiate the system with a program.
        sim::System system(cfg, workloads::build(name, params));

        // 3. Warm up functionally, then measure a timed window.
        system.fastForward(20000);
        sim::RunResult res = system.measureTimed(50000, 50'000'000);

        std::printf("%-22s IPC %.4f   (%llu insts in %llu cycles)\n",
                    core::policyName(policy), res.ipc,
                    (unsigned long long)res.insts,
                    (unsigned long long)res.cycles);

        // Every component keeps detailed statistics:
        std::printf("    L2: %llu hits / %llu misses, DRAM page hits: "
                    "%llu\n",
                    (unsigned long long)system.hier().l2().hits(),
                    (unsigned long long)system.hier().l2().misses(),
                    (unsigned long long)
                        system.hier().ctrl().dram().pageHits());
    }

    std::printf("\nExpected: authen-then-issue slowest (verification on "
                "the critical path),\nauthen-then-commit close to the "
                "decryption-only baseline.\n");
    return 0;
}
