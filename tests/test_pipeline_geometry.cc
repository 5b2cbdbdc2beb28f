/**
 * @file
 * Pipeline geometry sweeps: the core must stay architecturally correct
 * (co-simulated) across RUU sizes, widths, store-buffer depths and
 * MSHR limits — a robustness net under the structures the paper's
 * sensitivity studies vary (Fig. 10/11 halve the RUU).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "sim/system.hh"
#include "workloads/workloads.hh"

using namespace acp;
using core::AuthPolicy;

namespace
{

/** (ruu, width, store buffer, mshrs, policy index) */
using Geometry = std::tuple<unsigned, unsigned, unsigned, unsigned, int>;

const AuthPolicy kPolicies[] = {
    AuthPolicy::kBaseline,
    AuthPolicy::kAuthThenIssue,
    AuthPolicy::kAuthThenWrite,
    AuthPolicy::kCommitPlusFetch,
};

} // namespace

class PipelineGeometry : public ::testing::TestWithParam<Geometry>
{};

TEST_P(PipelineGeometry, RunsCosimulated)
{
    auto [ruu, width, sb, mshrs, pol_idx] = GetParam();
    sim::SimConfig cfg;
    cfg.policy = kPolicies[pol_idx];
    cfg.memoryBytes = 64ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    cfg.ruuSize = ruu;
    cfg.fetchWidth = width;
    cfg.decodeWidth = width;
    cfg.issueWidth = width;
    cfg.commitWidth = width;
    cfg.storeBufferSize = sb;
    cfg.maxOutstandingFetches = mshrs;

    workloads::WorkloadParams params;
    params.workingSetBytes = 512 << 10;
    // equake mixes gathers, FP and stores — good structural stressor.
    sim::System system(cfg, workloads::build("equake", params));
    system.enableCosim();
    system.fastForward(3000);
    sim::RunResult res = system.measureTimed(15000, 60'000'000);
    EXPECT_EQ(res.reason, cpu::StopReason::kInstLimit);
    EXPECT_GT(res.ipc, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineGeometry,
    ::testing::Values(
        Geometry{128, 8, 32, 16, 0}, // paper default
        Geometry{64, 8, 32, 16, 0},  // Fig. 10 RUU
        Geometry{16, 8, 32, 16, 0},  // tiny window
        Geometry{8, 2, 4, 2, 0},     // minimal everything
        Geometry{128, 2, 32, 16, 0}, // narrow
        Geometry{128, 8, 1, 16, 1},  // 1-deep store buffer, issue-gated
        Geometry{64, 4, 8, 1, 2},    // single MSHR, write-gated
        Geometry{32, 8, 32, 16, 3},  // small window, commit+fetch
        Geometry{128, 8, 2, 16, 2},  // tiny store buffer, write-gated
        Geometry{16, 2, 2, 2, 3},    // worst case everything
        Geometry{96, 8, 32, 16, 2},  // RUU not a power of two
        Geometry{200, 8, 32, 16, 3})); // RUU past 128, commit+fetch

/** The RUU-size effect the paper's Fig. 10 depends on: a larger
 *  window must not hurt, and usually helps, a memory-bound kernel. */
TEST(PipelineGeometryEffects, BiggerRuuHelpsMlp)
{
    auto ipc_for = [](unsigned ruu) {
        sim::SimConfig cfg;
        cfg.policy = AuthPolicy::kBaseline;
        cfg.memoryBytes = 64ULL << 20;
        cfg.protectedBytes = cfg.memoryBytes;
        cfg.ruuSize = ruu;
        workloads::WorkloadParams params;
        params.workingSetBytes = 1 << 20;
        sim::System system(cfg, workloads::build("gap", params));
        system.fastForward(20000);
        return system.measureTimed(30000, 60'000'000).ipc;
    };
    double small_ruu = ipc_for(16);
    double large_ruu = ipc_for(128);
    EXPECT_GT(large_ruu, small_ruu * 1.2); // gather needs the window
}

/** MSHR limit throttles memory-level parallelism. */
TEST(PipelineGeometryEffects, MshrLimitThrottlesMlp)
{
    auto ipc_for = [](unsigned mshrs) {
        sim::SimConfig cfg;
        cfg.policy = AuthPolicy::kBaseline;
        cfg.memoryBytes = 64ULL << 20;
        cfg.protectedBytes = cfg.memoryBytes;
        cfg.maxOutstandingFetches = mshrs;
        workloads::WorkloadParams params;
        params.workingSetBytes = 1 << 20;
        // gap's independent gathers keep many fetches in flight.
        sim::System system(cfg, workloads::build("gap", params));
        system.fastForward(20000);
        return system.measureTimed(30000, 60'000'000).ipc;
    };
    EXPECT_GT(ipc_for(16), ipc_for(1) * 1.1);
}
