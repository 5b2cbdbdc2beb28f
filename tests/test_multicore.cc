/**
 * @file
 * Multi-core system tests: the contracts ISSUE 8 (N cores, one secure
 * memory controller) promises.
 *
 *  - A --cores 1 system is the classic single-core simulator,
 *    bit-identically: same stat names (no "cpuN." prefixes), same
 *    numbers run-to-run.
 *  - A 2-core system running the same memory-bound kernel on both
 *    cores sees genuine cross-client bus contention
 *    (bus.cross_client_contended > 0, both clients granted), and each
 *    core's eleven-cause stall taxonomy still partitions its
 *    non-commit cycles exactly.
 *  - Grant order is deterministic: repeated 2-core runs produce
 *    byte-identical statistics.
 *  - Every core of a workload mix commits what its functional
 *    reference computes, under every policy.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/parse.hh"
#include "printers.hh"
#include "sim/system.hh"
#include "workloads/workloads.hh"

using namespace acp;
using core::AuthPolicy;

namespace
{

sim::SimConfig
cfgFor(unsigned cores, AuthPolicy policy)
{
    sim::SimConfig cfg;
    cfg.policy = policy;
    cfg.numCores = cores;
    cfg.memoryBytes = 256ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    return cfg;
}

/** Run @p cores copies of @p name and return (final stats text, run). */
std::pair<std::string, sim::RunResult>
run(const std::string &name, unsigned cores, AuthPolicy policy,
    std::uint64_t insts = 8000)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    sim::System system(cfgFor(cores, policy),
                       workloads::build(name, params));
    system.fastForward(10000);
    sim::RunResult res = system.measureTimed(insts, 40'000'000);
    return {system.dumpStats(), res};
}

/** First numeric column per stat line ("name value ..."). */
std::map<std::string, double>
parseStats(const std::string &text)
{
    std::map<std::string, double> out;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream in(line);
        std::string key;
        double value;
        if (in >> key >> value)
            out[key] = value;
    }
    return out;
}

double
get(const std::map<std::string, double> &stats, const std::string &key)
{
    auto it = stats.find(key);
    EXPECT_NE(it, stats.end()) << "missing stat " << key;
    return it == stats.end() ? -1.0 : it->second;
}

const char *kStallCauses[] = {
    "auth_commit", "auth_issue", "sb_full",    "mem_data",
    "bus_wait",    "mem_fetch",  "fetch_gate", "exec",
    "issue_wait",  "squash",     "frontend",
};

} // namespace

TEST(Multicore, SingleCoreKeepsClassicStatNames)
{
    auto [stats, res] = run("mcf", 1, AuthPolicy::kAuthThenCommit);
    EXPECT_NE(stats.find("core.committed"), std::string::npos);
    EXPECT_NE(stats.find("l1i.hits"), std::string::npos);
    EXPECT_EQ(stats.find("cpu0."), std::string::npos)
        << "single-core stats must not grow per-core prefixes";
    EXPECT_GE(res.insts, 8000u);
}

TEST(Multicore, SingleCoreDeterministic)
{
    auto [stats_a, res_a] = run("mcf", 1, AuthPolicy::kAuthThenCommit);
    auto [stats_b, res_b] = run("mcf", 1, AuthPolicy::kAuthThenCommit);
    EXPECT_EQ(stats_a, stats_b);
    EXPECT_EQ(res_a.cycles, res_b.cycles);
    EXPECT_EQ(res_a.insts, res_b.insts);
}

TEST(Multicore, TwoCoresContendOnSharedBus)
{
    auto [text, res] = run("mcf", 2, AuthPolicy::kAuthThenCommit);
    auto stats = parseStats(text);

    // Both cores made full progress inside their own address slices.
    EXPECT_GE(get(stats, "cpu0.core.committed"), 8000.0);
    EXPECT_GE(get(stats, "cpu1.core.committed"), 8000.0);
    EXPECT_GE(double(res.insts), 16000.0);

    // Identical workloads through one bus: both clients were granted,
    // and some grants waited behind the *other* client's beats.
    EXPECT_GT(get(stats, "bus.cpu0_grants"), 0.0);
    EXPECT_GT(get(stats, "bus.cpu1_grants"), 0.0);
    EXPECT_GT(get(stats, "bus.cross_client_contended"), 0.0);

    // The shared auth engine saw both clients.
    EXPECT_GT(get(stats, "auth.cpu0_requests"), 0.0);
    EXPECT_GT(get(stats, "auth.cpu1_requests"), 0.0);
}

TEST(Multicore, PerCoreStallTaxonomyPartitionsExactly)
{
    auto [text, res] = run("mcf", 2, AuthPolicy::kAuthThenCommit);
    (void)res;
    auto stats = parseStats(text);

    for (unsigned i = 0; i < 2; ++i) {
        std::string prefix = "cpu" + std::to_string(i) + ".core.";
        double sum = 0;
        for (const char *cause : kStallCauses)
            sum += get(stats, prefix + "stall." + cause);
        double expected = get(stats, prefix + "cycles") -
                          get(stats, prefix + "commit_active_cycles");
        EXPECT_EQ(sum, expected) << "core " << i
                                 << ": stall causes must partition "
                                    "non-commit cycles exactly";
    }
}

TEST(Multicore, TwoCoreRunsAreDeterministic)
{
    // FCFS arbitration has no hidden tie-break state: repeating the
    // run reproduces every grant, and with it every statistic.
    auto [stats_a, res_a] = run("mcf", 2, AuthPolicy::kAuthThenCommit);
    auto [stats_b, res_b] = run("mcf", 2, AuthPolicy::kAuthThenCommit);
    EXPECT_EQ(stats_a, stats_b);
    EXPECT_EQ(res_a.cycles, res_b.cycles);
    EXPECT_EQ(res_a.insts, res_b.insts);
}

/** A workload mix (one kernel per core, '+'-joined) under one policy:
 *  a short co-simulated window at 512 KiB on the paper machine. Every
 *  core checks each commit against its own reference machine while
 *  the cores share the bus, the controller and the auth engine. */
class EveryMixAndPolicy
    : public ::testing::TestWithParam<std::tuple<std::string, AuthPolicy>>
{};

TEST_P(EveryMixAndPolicy, RunsCosimulated)
{
    const auto &[mix, policy] = GetParam();
    const std::vector<std::string> names = splitOn(mix, '+');
    workloads::WorkloadParams params;
    params.workingSetBytes = 512 << 10;
    std::vector<isa::Program> progs;
    for (const std::string &name : names)
        progs.push_back(workloads::build(name, params));
    sim::SimConfig cfg = sim::paperConfig();
    cfg.policy = policy;
    cfg.numCores = unsigned(names.size());
    sim::System system(cfg, progs);
    system.fastForward(5000);
    system.enableCosim();
    sim::RunResult res = system.measureTimed(10000, 10'000'000);
    for (unsigned i = 0; i < system.numCores(); ++i)
        EXPECT_EQ(system.core(i).runReason(), cpu::StopReason::kInstLimit)
            << "core " << i << " (" << names[i] << ")";
    EXPECT_GE(res.insts, 10000u * names.size());
}

INSTANTIATE_TEST_SUITE_P(
    All, EveryMixAndPolicy,
    ::testing::Combine(
        ::testing::Values(std::string("mcf+swim"),
                          std::string("gcc+mgrid+twolf+art")),
        ::testing::Values(AuthPolicy::kBaseline, AuthPolicy::kAuthThenIssue,
                          AuthPolicy::kAuthThenWrite,
                          AuthPolicy::kAuthThenCommit,
                          AuthPolicy::kAuthThenFetch,
                          AuthPolicy::kCommitPlusFetch,
                          AuthPolicy::kCommitPlusObfuscation)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           core::policyName(std::get<1>(info.param));
        for (char &ch : name)
            if (ch == '-' || ch == '+')
                ch = '_';
        return name;
    });
