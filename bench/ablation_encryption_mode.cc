/**
 * @file
 * Ablation extending Table 1 into measurement: counter-mode (with and
 * without [19]'s counter prediction) versus CBC timing, under the
 * decrypt-only baseline and under authen-then-issue. Expectations:
 * CBC's serial decryption costs heavily even with no authentication;
 * counter prediction recovers most of the counter-cache-miss penalty;
 * under issue-gating CBC's narrower decrypt-to-verify gap does not
 * save it because everything is slower in absolute terms.
 *
 * encryptionMode/counterPrediction are part of the full-config cache
 * key, so (unlike under the old snprintf key, which silently dropped
 * them) these runs are safely cached.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

using namespace acp;

int
main()
{
    const std::vector<std::string> names = {"mcf", "art", "equake",
                                            "swim"};
    const core::AuthPolicy policies[] = {core::AuthPolicy::kBaseline,
                                         core::AuthPolicy::kAuthThenIssue};

    std::printf("Ablation: encryption mode (absolute IPC)\n\n");

    // One batch: {baseline,issue} x {ctr+pred, ctr no-pred, cbc}.
    exp::Request sweep = bench::paperRequest();
    sweep.workloads(names);
    for (core::AuthPolicy policy : policies) {
        sweep.variant("ctr+predict", [policy](sim::SimConfig &cfg) {
            cfg.policy = policy;
            cfg.encryptionMode = sim::EncryptionMode::kCounterMode;
            cfg.counterPrediction = true;
        });
        sweep.variant("ctr no-pred", [policy](sim::SimConfig &cfg) {
            cfg.policy = policy;
            cfg.encryptionMode = sim::EncryptionMode::kCounterMode;
            cfg.counterPrediction = false;
        });
        sweep.variant("cbc", [policy](sim::SimConfig &cfg) {
            cfg.policy = policy;
            cfg.encryptionMode = sim::EncryptionMode::kCbc;
            cfg.counterPrediction = false;
        });
    }
    std::vector<exp::Result> results = exp::submit(sweep).results;
    const std::size_t stride = 6;

    for (int p = 0; p < 2; ++p) {
        std::printf("%s:\n", core::policyName(policies[p]));
        std::printf("%-10s %14s %14s %14s\n", "bench", "ctr+predict",
                    "ctr no-pred", "cbc");
        bench::rule('-', 58);
        for (std::size_t w = 0; w < names.size(); ++w) {
            std::printf("%-10s", names[w].c_str());
            for (int m = 0; m < 3; ++m)
                std::printf(" %14.4f",
                            results[w * stride + p * 3 + m].run.ipc);
            std::printf("\n");
        }
        std::printf("\n");
    }
    std::printf("Expected: ctr+predict >= ctr no-pred >= cbc "
                "(Table 1's reasoning, measured).\n");
    return 0;
}
