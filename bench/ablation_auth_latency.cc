/**
 * @file
 * Ablation: sensitivity to the MAC verification latency (paper Section
 * 5.2 notes latencies vary with scheme/technology; this sweeps the
 * decrypt-to-verify gap). Expectation: authen-then-issue degrades
 * steeply with latency (verification on the critical path), while
 * authen-then-commit absorbs it until the RUU fills.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

using namespace acp;

int
main()
{
    const std::vector<std::string> names = {"mcf", "art", "swim", "twolf"};
    const unsigned latencies[] = {74, 148, 296};
    const core::AuthPolicy policies[] = {core::AuthPolicy::kAuthThenIssue,
                                         core::AuthPolicy::kAuthThenCommit};

    std::printf("Ablation: authentication latency sweep "
                "(normalized IPC vs decrypt-only baseline, 256KB L2)\n");

    // One batch: baseline + {issue,commit} x {74,148,296} per bench.
    exp::Request sweep = bench::paperRequest();
    sweep.workloads(names);
    sweep.variant("base", [](sim::SimConfig &cfg) {
        cfg.policy = core::AuthPolicy::kBaseline;
    });
    for (core::AuthPolicy policy : policies)
        for (unsigned lat : latencies)
            sweep.variant(core::policyName(policy),
                          [policy, lat](sim::SimConfig &cfg) {
                              cfg.policy = policy;
                              cfg.authLatency = lat;
                          });
    std::vector<exp::Result> results = exp::submit(sweep).results;
    const std::size_t stride = 7;

    for (int p = 0; p < 2; ++p) {
        std::printf("\n%s:\n", core::policyName(policies[p]));
        std::printf("%-10s %12s %12s %12s\n", "bench", "74ns", "148ns",
                    "296ns");
        bench::rule('-', 50);
        for (std::size_t w = 0; w < names.size(); ++w) {
            double base = results[w * stride].run.ipc;
            std::printf("%-10s", names[w].c_str());
            for (int l = 0; l < 3; ++l) {
                double ipc = results[w * stride + 1 + p * 3 + l].run.ipc;
                std::printf(" %11.1f%%",
                            base > 0 ? 100.0 * ipc / base : 0.0);
            }
            std::printf("\n");
        }
    }
    return 0;
}
