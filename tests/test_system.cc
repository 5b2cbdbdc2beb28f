/**
 * @file
 * System-level integration tests: fast-forward + timed continuation,
 * statistics dumping, the policy performance ordering the paper's
 * Figure 7 reports (as a property with tolerance), and store-release
 * buffer behaviour under authen-then-write.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/auth_policy.hh"
#include "sim/system.hh"
#include "workloads/workloads.hh"

using namespace acp;
using core::AuthPolicy;

namespace
{

sim::SimConfig
cfgFor(AuthPolicy policy)
{
    sim::SimConfig cfg;
    cfg.policy = policy;
    cfg.memoryBytes = 64ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    return cfg;
}

double
ipcOf(const std::string &name, AuthPolicy policy)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    sim::System system(cfgFor(policy), workloads::build(name, params));
    system.fastForward(20000);
    return system.measureTimed(40000, 40'000'000).ipc;
}

} // namespace

TEST(System, DumpStatsContainsAllGroups)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    sim::System system(cfgFor(AuthPolicy::kCommitPlusObfuscation),
                       workloads::build("twolf", params));
    system.fastForward(5000);
    system.measureTimed(10000, 10'000'000);
    std::string stats = system.dumpStats();
    for (const char *key :
         {"core.committed", "l1i.hits", "l1d.hits", "l2.misses",
          "dram.accesses", "auth.requests", "memctrl.fetches",
          "counter_cache.hits", "remap.translates", "extmem.fetches"})
        EXPECT_NE(stats.find(key), std::string::npos) << key;
}

// Loading a program image is trusted provisioning, not runtime
// traffic: although mcf's code image ends inside a line, a fresh
// system (one core or two) has fetched nothing from external memory.
TEST(System, ConstructionFetchesNothing)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    for (unsigned cores : {1u, 2u}) {
        sim::SimConfig cfg = cfgFor(AuthPolicy::kAuthThenCommit);
        cfg.numCores = cores;
        sim::System system(cfg, workloads::build("mcf", params));
        EXPECT_NE(system.dumpStats().find("\nextmem.fetches 0\n"),
                  std::string::npos)
            << cores << " core(s)";
    }
}

// The controller builds the remap layer exactly when the policy
// obfuscates, and the integrity tree exactly when the policy verifies
// and the tree is switched on; each one's stat group is in the dump
// with it and only with it.
TEST(System, MetadataStructuresFollowThePolicy)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    for (AuthPolicy policy :
         {AuthPolicy::kBaseline, AuthPolicy::kAuthThenIssue,
          AuthPolicy::kAuthThenWrite, AuthPolicy::kAuthThenCommit,
          AuthPolicy::kAuthThenFetch, AuthPolicy::kCommitPlusFetch,
          AuthPolicy::kCommitPlusObfuscation})
        for (bool tree : {false, true}) {
            sim::SimConfig cfg = cfgFor(policy);
            cfg.hashTreeEnabled = tree;
            sim::System system(cfg, workloads::build("mcf", params));
            const std::string stats = "\n" + system.dumpStats();
            const bool has_remap =
                stats.find("\nremap.") != std::string::npos;
            const bool has_tree = stats.find("\ntree.") != std::string::npos;
            EXPECT_EQ(has_remap, core::obfuscates(policy))
                << core::policyName(policy) << " tree=" << tree;
            EXPECT_EQ(has_tree, core::verifies(policy) && tree)
                << core::policyName(policy) << " tree=" << tree;
        }
}

TEST(System, FastForwardAfterCoreCreationIsFatal)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    sim::System system(cfgFor(AuthPolicy::kBaseline),
                       workloads::build("gcc", params));
    system.core();
    EXPECT_EXIT(system.fastForward(10),
                ::testing::ExitedWithCode(1), "fastForward");
}

// An empty RUU dispatches nothing and an empty LSQ admits no load:
// either core would idle into the no-progress panic. The LSQ is half
// the RUU, so an RUU of 1 is the empty-LSQ case.
TEST(System, EmptyRuuOrLsqIsFatal)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    isa::Program prog = workloads::build("mcf", params);
    sim::SimConfig cfg = cfgFor(AuthPolicy::kAuthThenCommit);
    cfg.ruuSize = 0;
    EXPECT_EXIT({ sim::System system(cfg, prog); },
                ::testing::ExitedWithCode(1), "ruuSize 0");
    cfg.ruuSize = 1;
    EXPECT_EXIT({ sim::System system(cfg, prog); },
                ::testing::ExitedWithCode(1), "ruuSize 1");
}

// Zero cores is no machine: it is fatal, not quietly one core under a
// different config digest.
TEST(System, ZeroCoresIsFatal)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    isa::Program prog = workloads::build("mcf", params);
    sim::SimConfig cfg = cfgFor(AuthPolicy::kAuthThenCommit);
    cfg.numCores = 0;
    EXPECT_EXIT({ sim::System system(cfg, prog); },
                ::testing::ExitedWithCode(1), "numCores 0");
    EXPECT_EXIT({ sim::System system(cfg, std::vector<isa::Program>{}); },
                ::testing::ExitedWithCode(1), "numCores 0");
}

// A zero fetch, decode, issue or commit width never moves an
// instruction through its stage, and an empty store buffer never
// commits a store: the System refuses each, naming the field.
class ZeroWidth : public ::testing::TestWithParam<const char *>
{};

TEST_P(ZeroWidth, IsFatalAndNamesTheField)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    isa::Program prog = workloads::build("mcf", params);
    const std::string field = GetParam();
    const std::map<std::string, unsigned sim::SimConfig::*> members = {
        {"fetchWidth", &sim::SimConfig::fetchWidth},
        {"decodeWidth", &sim::SimConfig::decodeWidth},
        {"issueWidth", &sim::SimConfig::issueWidth},
        {"commitWidth", &sim::SimConfig::commitWidth},
        {"storeBufferSize", &sim::SimConfig::storeBufferSize},
    };
    sim::SimConfig cfg = cfgFor(AuthPolicy::kAuthThenCommit);
    cfg.*members.at(field) = 0;
    EXPECT_EXIT({ sim::System system(cfg, prog); },
                ::testing::ExitedWithCode(1), "fatal: " + field + " 0");
}

INSTANTIATE_TEST_SUITE_P(
    Fields, ZeroWidth,
    ::testing::Values("fetchWidth", "decodeWidth", "issueWidth",
                      "commitWidth", "storeBufferSize"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

// Each core gets memoryBytes / nextPow2(numCores) bytes. 32 cores in
// 16 MiB leave 512 KiB each, and mcf's data starts at 1 MiB: the image
// would overwrite a neighbouring core's.
TEST(System, ProgramImageLargerThanItsSliceIsFatal)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 64 * 1024;
    sim::SimConfig cfg = cfgFor(AuthPolicy::kAuthThenCommit);
    cfg.memoryBytes = 16ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    cfg.numCores = 32;
    EXPECT_EXIT(
        { sim::System system(cfg, workloads::build("mcf", params)); },
        ::testing::ExitedWithCode(1),
        "core 0: workload 'mcf' image ends at 0x[0-9a-f]+, past its "
        "0x80000-byte address slice");
}

TEST(System, DeterministicAcrossRuns)
{
    double a = ipcOf("vpr", AuthPolicy::kAuthThenCommit);
    double b = ipcOf("vpr", AuthPolicy::kAuthThenCommit);
    EXPECT_DOUBLE_EQ(a, b);
}

/**
 * The paper's Figure 7 ordering as a property (5% tolerance for
 * microarchitectural noise on single workloads):
 *   issue <= {fetch, commit+fetch} <= {commit, write} <= ~baseline.
 */
TEST(System, PolicyPerformanceOrdering)
{
    for (const std::string name : {"mcf", "equake"}) {
        std::map<AuthPolicy, double> ipc;
        for (AuthPolicy policy :
             {AuthPolicy::kBaseline, AuthPolicy::kAuthThenIssue,
              AuthPolicy::kAuthThenWrite, AuthPolicy::kAuthThenCommit,
              AuthPolicy::kCommitPlusFetch})
            ipc[policy] = ipcOf(name, policy);

        EXPECT_LE(ipc[AuthPolicy::kAuthThenIssue],
                  ipc[AuthPolicy::kAuthThenCommit] * 1.05) << name;
        EXPECT_LE(ipc[AuthPolicy::kAuthThenIssue],
                  ipc[AuthPolicy::kAuthThenWrite] * 1.05) << name;
        EXPECT_LE(ipc[AuthPolicy::kCommitPlusFetch],
                  ipc[AuthPolicy::kAuthThenCommit] * 1.05) << name;
        EXPECT_LE(ipc[AuthPolicy::kAuthThenCommit],
                  ipc[AuthPolicy::kBaseline] * 1.05) << name;
        EXPECT_LE(ipc[AuthPolicy::kAuthThenWrite],
                  ipc[AuthPolicy::kBaseline] * 1.05) << name;
        // Authentication must cost *something* under issue-gating.
        EXPECT_LT(ipc[AuthPolicy::kAuthThenIssue],
                  ipc[AuthPolicy::kBaseline]) << name;
    }
}

TEST(System, LargeL2ReducesOverheadSpread)
{
    // Figure 7(c,d): quadrupling the L2 shrinks the issue-gating
    // penalty because fewer fills need verification. A 512KB working
    // set thrashes the 256KB L2 but fits the 1MB one.
    workloads::WorkloadParams params;
    params.workingSetBytes = 512 << 10;

    // art streams sequentially, so one full pass (~850k instructions)
    // warms every line deterministically.
    auto run = [&](bool large) {
        sim::SimConfig base = cfgFor(AuthPolicy::kBaseline);
        sim::SimConfig issue = cfgFor(AuthPolicy::kAuthThenIssue);
        if (large) {
            base.useLargeL2();
            issue.useLargeL2();
        }
        sim::System sys_base(base, workloads::build("art", params));
        sys_base.fastForward(1'000'000);
        double ipc_base = sys_base.measureTimed(60000, 60'000'000).ipc;
        sim::System sys_issue(issue, workloads::build("art", params));
        sys_issue.fastForward(1'000'000);
        double ipc_issue = sys_issue.measureTimed(60000, 60'000'000).ipc;
        return ipc_issue / ipc_base;
    };

    double penalty_small = run(false);
    double penalty_large = run(true);
    // With the working set resident in the 1MB L2, verification is
    // off the critical path almost entirely.
    EXPECT_GT(penalty_large, penalty_small);
    EXPECT_GT(penalty_large, 0.95);
}

TEST(System, WritePolicyParksStoresUntilVerified)
{
    // A store burst under authen-then-write: releases lag verification,
    // so the release-stall counter must tick while results stay
    // architecturally correct (co-simulated).
    isa::ProgramBuilder pb(0x1000, "burst");
    isa::Label outer = pb.newLabel(), inner = pb.newLabel();
    pb.li(1, 0x200000);
    pb.li(4, 1 << 18);
    pb.bind(outer);
    pb.li(2, 0);
    pb.bind(inner);
    pb.add(3, 1, 2);
    pb.ld(5, 0, 3);     // miss: creates an auth request
    pb.add(5, 5, 2);
    pb.sd(5, 0, 3);     // store tagged with LastRequest
    pb.addi(2, 2, 64);
    pb.blt(2, 4, inner);
    pb.j(outer);
    isa::Program prog = pb.finish();

    sim::System system(cfgFor(AuthPolicy::kAuthThenWrite), prog);
    system.enableCosim();
    sim::RunResult res = system.measureTimed(30000, 30'000'000);
    EXPECT_EQ(res.reason, cpu::StopReason::kInstLimit);

    std::string stats;
    system.core().stats().dump(stats);
    EXPECT_NE(stats.find("store_release_stalls"), std::string::npos);
    // The gate must actually have engaged at least once.
    auto pos = stats.find("core.store_release_stalls ");
    std::uint64_t stalls = std::strtoull(
        stats.c_str() + pos + strlen("core.store_release_stalls "),
        nullptr, 10);
    EXPECT_GT(stalls, 0u);
}

TEST(System, HashTreeConfigCosimulates)
{
    // Fig. 12 configuration: CHTree enabled. Architectural behaviour
    // must be unchanged (tree is timing + integrity only).
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    sim::SimConfig cfg = cfgFor(AuthPolicy::kCommitPlusFetch);
    cfg.hashTreeEnabled = true;
    sim::System system(cfg, workloads::build("equake", params));
    system.enableCosim();
    system.fastForward(10000);
    sim::RunResult res = system.measureTimed(20000, 40'000'000);
    EXPECT_EQ(res.reason, cpu::StopReason::kInstLimit);
    std::string stats = system.dumpStats();
    EXPECT_NE(stats.find("tree.verifies"), std::string::npos);
}

TEST(System, HashTreeSlowsVerificationGatedPolicies)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;

    auto run = [&](bool tree) {
        sim::SimConfig cfg = cfgFor(AuthPolicy::kAuthThenIssue);
        cfg.hashTreeEnabled = tree;
        sim::System system(cfg, workloads::build("mcf", params));
        system.fastForward(10000);
        return system.measureTimed(20000, 100'000'000).ipc;
    };
    double no_tree = run(false);
    double with_tree = run(true);
    // Tree path verification adds node fetches + per-level hashing on
    // the critical (issue-gated) path.
    EXPECT_LT(with_tree, no_tree);
}

TEST(System, ObfuscationConfigCosimulates)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    sim::System system(cfgFor(AuthPolicy::kCommitPlusObfuscation),
                       workloads::build("vortex", params));
    system.enableCosim();
    system.fastForward(10000);
    sim::RunResult res = system.measureTimed(20000, 40'000'000);
    EXPECT_EQ(res.reason, cpu::StopReason::kInstLimit);
    std::string stats = system.dumpStats();
    EXPECT_NE(stats.find("remap.shuffles"), std::string::npos);
}

TEST(System, DrainFetchVariantRunsAndIsSlower)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;

    auto run = [&](bool drain) {
        sim::SimConfig cfg = cfgFor(AuthPolicy::kAuthThenFetch);
        cfg.fetchGateDrain = drain;
        sim::System system(cfg, workloads::build("gap", params));
        system.enableCosim();
        system.fastForward(10000);
        return system.measureTimed(20000, 100'000'000).ipc;
    };
    double tag_variant = run(false);
    double drain_variant = run(true);
    // Draining the whole queue serializes independent fetch streams.
    EXPECT_LE(drain_variant, tag_variant * 1.02);
}
