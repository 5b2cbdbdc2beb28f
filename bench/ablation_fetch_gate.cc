/**
 * @file
 * Ablation: the two authen-then-fetch implementations the paper
 * sketches in Section 4.2.4 — the per-instruction LastRequest tag
 * (default) versus drain-authen-then-fetch (wait until the whole
 * authentication queue is empty before granting the bus). The drain
 * variant is simpler hardware but serializes independent fetch
 * streams; this bench quantifies the difference. Also sweeps the
 * verification engine's initiation interval (a serial engine throttles
 * everything).
 *
 * The drain switch is SimConfig::fetchGateDrain, so every variant is
 * fully keyed and safely cached.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"

using namespace acp;

int
main()
{
    const std::vector<std::string> names = {"mcf", "art", "gap", "swim"};
    struct Variant
    {
        const char *label;
        bool drain;
        unsigned interval;
    };
    const Variant variants[] = {
        {"tag@issue", false, 40},
        {"drain", true, 40},
        {"serial engine", false, 148},
        {"drain+serial", true, 148},
    };

    std::printf("Ablation: authen-then-fetch variants "
                "(normalized IPC vs decrypt-only baseline)\n\n");
    std::printf("%-10s %12s %12s %14s %16s\n", "bench", "tag@issue",
                "drain", "serial engine", "drain+serial");
    bench::rule('-', 70);

    exp::Request sweep = bench::paperRequest();
    sweep.workloads(names);
    sweep.variant("base", [](sim::SimConfig &cfg) {
        cfg.policy = core::AuthPolicy::kBaseline;
    });
    for (const Variant &v : variants)
        sweep.variant(v.label, [v](sim::SimConfig &cfg) {
            cfg.policy = core::AuthPolicy::kAuthThenFetch;
            cfg.fetchGateDrain = v.drain;
            cfg.authEngineInterval = v.interval;
        });
    std::vector<exp::Result> results = exp::submit(sweep).results;
    const std::size_t stride = 5;

    for (std::size_t w = 0; w < names.size(); ++w) {
        double base = results[w * stride].run.ipc;
        auto pct = [&](int v) {
            double ipc = results[w * stride + 1 + v].run.ipc;
            return base > 0 ? 100.0 * ipc / base : 0.0;
        };
        std::printf("%-10s %11.1f%% %11.1f%% %13.1f%% %15.1f%%\n",
                    names[w].c_str(), pct(0), pct(1), pct(2), pct(3));
    }
    std::printf("\nExpected: tag@issue >= drain (outstanding fetches "
                "excluded from the gate);\na serial engine (148ns "
                "initiation) throttles fill bandwidth for both.\n");
    return 0;
}
