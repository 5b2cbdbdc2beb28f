/**
 * @file
 * acpsim — command-line driver for the secure-processor simulator,
 * routed through the acp::exp experiment API so single runs and
 * multi-point sweeps share one execution and output path.
 *
 *   acpsim --list
 *   acpsim mcf --policy commit --insts 200000
 *   acpsim swim --policy issue --l2 1M --tree --stats
 *   acpsim mcf,art,swim --policy baseline,commit,issue --jobs 8 \
 *          --json sweep.json
 *
 * The CLI builds one exp::Request and hands it to exp::submit().
 *
 * Prints IPC (one row per point), with --stats the full statistics of
 * every component, and with --json a machine-readable record of every
 * point including its full configuration and digest.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "core/auth_policy.hh"
#include "cpu/ooo_core.hh"
#include "exp/request.hh"
#include "exp/submit.hh"
#include "obs/interval.hh"
#include "obs/manifest.hh"
#include "obs/path_report.hh"
#include "sim/system.hh"
#include "workloads/workloads.hh"

using namespace acp;

namespace
{

/** Each core's address slice (memoryBytes over numCores rounded up to
 *  a power of two) holds at least this much: 64 MiB gives 4 cores
 *  16 MiB each, and a default-working-set image ends below 10 MiB. */
constexpr std::uint64_t kMinSliceBytes = 16ULL << 20;

/** Double @p cfg's memory (all of it protected) until each of its
 *  cores gets a kMinSliceBytes slice; up to 4 cores it stays the
 *  paper machine's 64 MiB. */
void
fitMemory(sim::SimConfig &cfg)
{
    const std::uint64_t slots = std::uint64_t(1) << ceilLog2(cfg.numCores);
    while (cfg.memoryBytes / slots < kMinSliceBytes)
        cfg.memoryBytes *= 2;
    cfg.protectedBytes = cfg.memoryBytes;
}

/** @p bytes as SIZE text: "4M", "256K", or plain bytes. */
std::string
sizeText(std::uint64_t bytes)
{
    if (bytes != 0 && bytes % (1 << 20) == 0)
        return std::to_string(bytes >> 20) + "M";
    if (bytes != 0 && bytes % (1 << 10) == 0)
        return std::to_string(bytes >> 10) + "K";
    return std::to_string(bytes);
}

void
usage()
{
    std::printf(
        "acpsim — authentication-control-point secure processor "
        "simulator\n\n"
        "usage: acpsim <workload>[,<workload>...] [options]\n"
        "       acpsim --list\n\n"
        "workloads: any catalog name, comma-separated for a sweep, or\n"
        "           the groups 'int', 'fp', 'all'; a '+'-joined mix\n"
        "           (e.g. mcf+swim) runs one workload per core\n\n"
        "run options (simulated machine and measurement window):\n"
        "  the machine is the paper's: Table 3 with a 64 MiB memory,\n"
        "  doubled past 4 cores until each core's slice holds 16 MiB\n"
        "  --policy P[,P...]  baseline | issue | write | commit | fetch |\n"
        "                commit+fetch | obf        (default: baseline);\n"
        "                a comma-separated list sweeps every policy;\n"
        "                every core of a point runs the same policy\n"
        "  --cores N     out-of-order cores sharing one secure memory\n"
        "                controller, bus and auth engine (default: 1);\n"
        "                stats appear per core as cpu0.core.*, ...\n"
        "  --l2 SIZE     L2 size, e.g. 256K or 1M  (default: 256K)\n"
        "  --ruu N       RUU entries               (default: 128)\n"
        "  --tree        enable the CHTree integrity tree\n"
        "  --drain       drain-authen-then-fetch variant\n"
        "  --remap SIZE  re-map cache size         (default: 32K)\n"
        "  --ws SIZE     workload working set      (default: %s)\n"
        "  --insts N     measured instructions     (default: 100000)\n"
        "  --warmup N    fast-forward instructions (default: 50000)\n"
        "  --auth N      MAC verification latency  (default: 148)\n"
        "  --seed N      workload data seed: array contents/layout\n"
        "                randomization             (default: 42)\n"
        "  --rng-seed N  simulator RNG seed: external-memory and remap\n"
        "                layer randomness; independent of --seed so\n"
        "                data layout and simulator randomness can be\n"
        "                varied separately        (default: 12345)\n\n"
        "sweep options (multi-point execution and output):\n"
        "  --jobs N      worker threads for sweeps (default: ACP_JOBS\n"
        "                env, else all cores)\n"
        "  --json FILE   write every point+result as JSON\n"
        "  --cache       reuse/persist results in the ./acp_store\n"
        "                content-addressed result store (append-only;\n"
        "                concurrent acpsim processes may share it)\n\n"
        "observability options:\n"
        "  --stats       dump all component statistics\n"
        "  --host-stats  collect sim.host.* simulator self-metrics\n"
        "                (event-loop wakes + jump histogram per\n"
        "                core); shown with --stats and captured\n"
        "                into --json\n"
        "  --stats-interval N  record IPC + stall breakdown every N\n"
        "                cycles; prints a table and lands in --json\n"
        "  --profile     transaction path profiler: per-kind\n"
        "                latency-segment tables, path-shape census,\n"
        "                slowest transactions, stall join and leak\n"
        "                audit; prints a report per point and lands\n"
        "                in --json (points[i].result.profile)\n"
        "  --trace FILE  write a Chrome trace-event JSON of the whole\n"
        "                timed window (Perfetto-loadable, about 0.6 KB\n"
        "                per instruction; single-point only)\n"
        "  --trace-commits N  print a commit trace of the first N\n"
        "                insts (single-point runs only)\n"
        "  --cosim       co-simulate against the functional reference\n"
        "                (single-point runs only)\n\n"
        "  --version     print the build manifest (git SHA, build\n"
        "                type, compiler, sanitizers) and exit\n",
        sizeText(workloads::WorkloadParams{}.workingSetBytes).c_str());
}

core::AuthPolicy
parsePolicy(const std::string &name)
{
    if (name == "baseline") return core::AuthPolicy::kBaseline;
    if (name == "issue") return core::AuthPolicy::kAuthThenIssue;
    if (name == "write") return core::AuthPolicy::kAuthThenWrite;
    if (name == "commit") return core::AuthPolicy::kAuthThenCommit;
    if (name == "fetch") return core::AuthPolicy::kAuthThenFetch;
    if (name == "commit+fetch")
        return core::AuthPolicy::kCommitPlusFetch;
    if (name == "obf" || name == "obfuscation")
        return core::AuthPolicy::kCommitPlusObfuscation;
    acp_fatal("unknown policy '%s'", name.c_str());
}

std::vector<std::string>
expandWorkloads(const std::string &arg)
{
    std::vector<std::string> names;
    for (const std::string &part : splitOn(arg, ',')) {
        if (part == "int") {
            for (const std::string &n : workloads::intNames())
                names.push_back(n);
        } else if (part == "fp") {
            for (const std::string &n : workloads::fpNames())
                names.push_back(n);
        } else if (part == "all") {
            for (const std::string &n : workloads::allNames())
                names.push_back(n);
        } else {
            names.push_back(part);
        }
    }
    return names;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    if (std::strcmp(argv[1], "--list") == 0) {
        std::printf("%-10s %-4s %s\n", "name", "type", "behaviour class");
        for (const auto &info : workloads::catalog())
            std::printf("%-10s %-4s %s\n", info.name,
                        info.isFp ? "FP" : "INT", info.behaviour);
        return 0;
    }
    if (std::strcmp(argv[1], "--help") == 0 ||
        std::strcmp(argv[1], "-h") == 0) {
        usage();
        return 0;
    }
    if (std::strcmp(argv[1], "--version") == 0) {
        std::fputs(obs::manifestText(obs::manifest()).c_str(), stdout);
        return 0;
    }

    std::vector<std::string> names = expandWorkloads(argv[1]);
    std::vector<std::string> policy_tokens = {"baseline"};
    sim::SimConfig cfg = sim::paperConfig();
    workloads::WorkloadParams params;
    std::uint64_t insts = 100000;
    std::uint64_t warmup = 50000;
    unsigned jobs = 0;
    std::string json_file;
    bool use_cache = false;
    bool dump_stats = false;
    bool cosim = false;
    std::uint64_t trace_commits = 0;
    std::string trace_file;
    bool profile = false;

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                acp_fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--policy") {
            policy_tokens = splitOn(next(), ',');
            if (policy_tokens.empty())
                acp_fatal("--policy needs at least one policy name");
        } else if (arg == "--cores") {
            parseCount(arg, next(), cfg.numCores);
            if (cfg.numCores == 0)
                acp_fatal("--cores needs at least 1");
        } else if (arg == "--l2") {
            cfg.l2.sizeBytes = parseSize(arg, next());
            cfg.l2.hitLatency = cfg.l2.sizeBytes >= (1 << 20) ? 8 : 4;
        } else if (arg == "--ruu") {
            parseCount(arg, next(), cfg.ruuSize);
            // The LSQ is half the RUU, and the core needs one of each.
            if (cfg.ruuSize < 2)
                acp_fatal("--ruu %u: needs at least 2 entries (the LSQ "
                          "gets half)",
                          cfg.ruuSize);
        } else if (arg == "--tree") {
            cfg.hashTreeEnabled = true;
        } else if (arg == "--drain") {
            cfg.fetchGateDrain = true;
        } else if (arg == "--remap") {
            cfg.remapCache.sizeBytes = parseSize(arg, next());
        } else if (arg == "--ws") {
            params.workingSetBytes = parseSize(arg, next());
        } else if (arg == "--insts") {
            parseCount(arg, next(), insts);
        } else if (arg == "--warmup") {
            parseCount(arg, next(), warmup);
        } else if (arg == "--auth") {
            parseCount(arg, next(), cfg.authLatency);
        } else if (arg == "--seed") {
            parseCount(arg, next(), params.seed);
        } else if (arg == "--rng-seed") {
            parseCount(arg, next(), cfg.rngSeed);
        } else if (arg == "--jobs") {
            parseCount(arg, next(), jobs);
        } else if (arg == "--json") {
            json_file = next();
        } else if (arg == "--cache") {
            use_cache = true;
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--cosim") {
            cosim = true;
        } else if (arg == "--trace") {
            trace_file = next();
        } else if (arg == "--trace-commits") {
            parseCount(arg, next(), trace_commits);
        } else if (arg == "--stats-interval") {
            parseCount(arg, next(), cfg.statsInterval);
        } else if (arg == "--host-stats") {
            cfg.hostStats = true;
        } else if (arg == "--profile") {
            profile = true;
            cfg.profileEnabled = true;
        } else {
            usage();
            acp_fatal("unknown option '%s'", arg.c_str());
        }
    }
    if (names.empty())
        acp_fatal("no workloads given");

    // Build the request: workloads x policies, every knob in the
    // config. '+'-joined workload mixes expand inside points().
    exp::Request req;
    req.base(cfg).params(params).window(warmup, insts);
    req.workloads(names);
    for (const std::string &token : policy_tokens) {
        core::AuthPolicy policy = parsePolicy(token);
        req.variant(core::policyName(policy),
                    [policy](sim::SimConfig &c) { c.policy = policy; });
    }

    // Size each point's memory once points() has set its core count.
    // Tracing hooks into the live System between warmup and the timed
    // window; the hooks make the point uncacheable.
    req.decorate = [trace_commits, cosim,
                    path = trace_file](std::vector<exp::Point> &points) {
        for (exp::Point &point : points)
            fitMemory(point.cfg);
        if (trace_commits == 0 && !cosim && path.empty())
            return;
        if (points.size() > 1)
            acp_fatal("--trace/--trace-commits/--cosim need a "
                      "single workload and policy");
        // enableCosim and enableTrace must be armed before the timed
        // cores exist; the prepare hook runs right after fastForward,
        // which is early enough (the cores are created by
        // measureTimed/traceCommits).
        points[0].prepare = [trace_commits, cosim,
                             path](sim::System &system) {
            if (cosim)
                system.enableCosim();
            if (!path.empty())
                system.enableTrace();
            if (trace_commits > 0)
                system.core().traceCommits(stdout, trace_commits);
        };
        if (!path.empty()) {
            // Write the Chrome trace while the System is alive.
            points[0].finish = [path](sim::System &system) {
                if (!system.writeTrace(path))
                    acp_fatal("cannot write %s: %s", path.c_str(),
                              std::strerror(errno));
                std::fprintf(stderr, "wrote %s\n", path.c_str());
            };
        }
    };

    req.jobs = jobs;
    if (!use_cache)
        req.store.clear();
    exp::Submission sub = exp::submit(req);
    const std::vector<exp::Point> &points = sub.points;
    const std::vector<exp::Result> &results = sub.results;

    if (points.size() == 1) {
        const exp::Result &res = results[0];
        std::printf("workload   %s\n", points[0].workload.c_str());
        std::printf("policy     %s\n", points[0].label.c_str());
        if (points[0].cfg.numCores > 1)
            std::printf("cores      %u\n", points[0].cfg.numCores);
        std::printf("insts      %llu\n",
                    (unsigned long long)res.run.insts);
        std::printf("cycles     %llu\n",
                    (unsigned long long)res.run.cycles);
        std::printf("IPC        %.4f\n", res.run.ipc);
        std::printf("reason     %s\n",
                    cpu::stopReasonName(res.run.reason));
        if (res.intervalPeriod != 0 && !res.intervals.empty()) {
            std::printf("\nintervals (every %llu cycles):\n",
                        (unsigned long long)res.intervalPeriod);
            obs::printIntervalTable(res.intervals, stdout);
        }
        if (dump_stats)
            std::printf("\n%s", exp::statsText(res).c_str());
    } else {
        std::printf("%-10s %-20s %10s %12s %12s %10s\n", "workload",
                    "policy", "IPC", "insts", "cycles", "reason");
        for (std::size_t i = 0; i < points.size(); ++i)
            std::printf("%-10s %-20s %10.4f %12llu %12llu %10s\n",
                        points[i].workload.c_str(),
                        points[i].label.c_str(),
                        results[i].run.ipc,
                        (unsigned long long)results[i].run.insts,
                        (unsigned long long)results[i].run.cycles,
                        cpu::stopReasonName(results[i].run.reason));
        for (std::size_t i = 0; i < points.size(); ++i)
            if (results[i].intervalPeriod != 0 &&
                !results[i].intervals.empty()) {
                std::printf("\n%s / %s intervals (every %llu cycles):\n",
                            points[i].workload.c_str(),
                            points[i].label.c_str(),
                            (unsigned long long)results[i].intervalPeriod);
                obs::printIntervalTable(results[i].intervals, stdout);
            }
        if (dump_stats)
            for (std::size_t i = 0; i < points.size(); ++i)
                std::printf("\n===== %s / %s =====\n%s",
                            points[i].workload.c_str(),
                            points[i].label.c_str(),
                            exp::statsText(results[i]).c_str());
    }

    if (profile) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (!results[i].hasProfile)
                continue;
            if (points.size() > 1)
                std::printf("\n===== %s / %s =====\n",
                            points[i].workload.c_str(),
                            points[i].label.c_str());
            else
                std::printf("\n");
            obs::writePathProfileText(stdout, results[i].profile);
        }
    }

    if (!json_file.empty()) {
        if (!exp::writeJson(json_file, points, results, &sub.telemetry))
            acp_fatal("cannot write %s: %s", json_file.c_str(),
                      std::strerror(errno));
        std::fprintf(stderr, "wrote %s\n", json_file.c_str());
    }
    return 0;
}
