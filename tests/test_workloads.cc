/**
 * @file
 * Workload tests: every kernel builds, runs under co-simulation (the
 * strongest architectural check), and exhibits its intended memory
 * behaviour class (miss rates).
 */

#include <gtest/gtest.h>

#include "sim/system.hh"
#include "workloads/workloads.hh"

using namespace acp;

namespace
{

sim::SimConfig
smallCfg()
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 64ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    cfg.policy = core::AuthPolicy::kAuthThenCommit;
    return cfg;
}

workloads::WorkloadParams
smallParams()
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20; // 1MB: fast tests, still > L2/4
    return params;
}

} // namespace

TEST(Workloads, CatalogHas18)
{
    EXPECT_EQ(workloads::catalog().size(), 18u);
    EXPECT_EQ(workloads::intNames().size(), 9u);
    EXPECT_EQ(workloads::fpNames().size(), 9u);
}

TEST(Workloads, AllNamesAreIntThenFp)
{
    std::vector<std::string> names = workloads::intNames();
    for (const std::string &name : workloads::fpNames())
        names.push_back(name);
    EXPECT_EQ(workloads::allNames(), names);
}

/** Parameterized: every workload runs 30k instructions co-simulated. */
class EveryWorkload : public ::testing::TestWithParam<std::string>
{};

TEST_P(EveryWorkload, RunsCosimulated)
{
    isa::Program prog = workloads::build(GetParam(), smallParams());
    sim::System system(smallCfg(), prog);
    system.enableCosim();
    system.fastForward(5000);
    sim::RunResult res = system.measureTimed(30000, 30'000'000);
    EXPECT_EQ(res.reason, cpu::StopReason::kInstLimit) << GetParam();
    EXPECT_GE(res.insts, 30000u);
    EXPECT_GT(res.ipc, 0.0);
}

/** Every kernel builds at working sets from 64 KiB to 64 MiB (the
 *  catalog default, 4 MiB, included) and co-simulates a short window
 *  there: no immediate overflows, no address past its slice. */
TEST_P(EveryWorkload, RunsAtEveryWorkingSet)
{
    sim::SimConfig cfg = smallCfg();
    cfg.memoryBytes = 256ULL << 20; // acpsim's default memory
    cfg.protectedBytes = cfg.memoryBytes;
    for (std::uint64_t ws = 64ULL << 10; ws <= 64ULL << 20; ws <<= 2) {
        workloads::WorkloadParams params;
        params.workingSetBytes = ws;
        sim::System system(cfg, workloads::build(GetParam(), params));
        system.enableCosim();
        sim::RunResult res = system.measureTimed(2000, 2'000'000);
        EXPECT_EQ(res.reason, cpu::StopReason::kInstLimit)
            << GetParam() << " at " << ws << " bytes";
    }
}

INSTANTIATE_TEST_SUITE_P(All, EveryWorkload,
                         ::testing::ValuesIn(workloads::allNames()),
                         [](const auto &info) { return info.param; });

TEST(Workloads, McfIsMemoryBound)
{
    isa::Program prog = workloads::build("mcf", smallParams());
    sim::System system(smallCfg(), prog);
    system.fastForward(20000);
    sim::RunResult res = system.measureTimed(50000, 100'000'000);
    // Pointer chasing over 1MB in a 256KB L2: low IPC, many L2 misses.
    EXPECT_LT(res.ipc, 0.5);
    EXPECT_GT(system.hier().l2().misses(), 1000u);
}

TEST(Workloads, ArtStreamsThroughL2)
{
    isa::Program prog = workloads::build("art", smallParams());
    sim::System system(smallCfg(), prog);
    system.fastForward(20000);
    system.measureTimed(50000, 100'000'000);
    EXPECT_GT(system.hier().l2().misses(), 500u);
}

TEST(Workloads, UnknownNameIsFatal)
{
    EXPECT_EXIT(workloads::build("nonesuch", smallParams()),
                ::testing::ExitedWithCode(1), "unknown workload");
}

// mcf splits its working set into 64-byte nodes and indexes them
// modulo the node count: a set below one line has no node at all.
TEST(Workloads, WorkingSetBelowOneLineIsFatal)
{
    workloads::WorkloadParams params = smallParams();
    params.workingSetBytes = 0;
    EXPECT_EXIT(workloads::build("mcf", params),
                ::testing::ExitedWithCode(1), "working set of 0 bytes");
}

TEST(Workloads, DeterministicAcrossBuilds)
{
    workloads::WorkloadParams params = smallParams();
    isa::Program a = workloads::build("twolf", params);
    isa::Program b = workloads::build("twolf", params);
    EXPECT_EQ(a.code, b.code);
    ASSERT_EQ(a.data.size(), b.data.size());
    for (std::size_t i = 0; i < a.data.size(); ++i) {
        EXPECT_EQ(a.data[i].base, b.data[i].base);
        EXPECT_EQ(a.data[i].bytes, b.data[i].bytes);
    }
}
