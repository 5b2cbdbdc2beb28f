/**
 * @file
 * Event-loop tests (System::measureTimed). Three contracts:
 *   - the event loop is deterministic: repeated runs of the same point
 *     produce the same run result, stall taxonomy, stat dump, and
 *     profiler segments, on several workload x policy points;
 *   - cores due in the same cycle run in core order, so cpu0's
 *     same-cycle bus requests are recorded before cpu1's;
 *   - the Txn timeline arena never leaks: churned blocks return to the
 *     pool and live counts come back to baseline.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/txn.hh"
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

/** One measured point: run result + full stat dump + stall counters. */
struct PointOutcome
{
    sim::RunResult run;
    std::string stats;
    obs::StallArray stalls;
    Cycle cycles = 0;
};

PointOutcome
runPoint(const std::string &workload, AuthPolicy policy)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    sim::System system(cfgFor(policy),
                       workloads::build(workload, params));
    system.fastForward(10000);
    PointOutcome out;
    out.run = system.measureTimed(20000, 20'000'000);
    out.stats = system.dumpStats();
    out.stalls = system.core().stallCycles();
    out.cycles = system.core().cycles();
    return out;
}

} // namespace

// An event loop with a deterministic tie-break must be exactly
// reproducible: same point, same bits, every time.
TEST(EventLoop, EventLoopDeterministic)
{
    struct
    {
        const char *workload;
        AuthPolicy policy;
    } points[] = {
        {"mcf", AuthPolicy::kAuthThenCommit},
        {"gcc", AuthPolicy::kAuthThenIssue},
        {"twolf", AuthPolicy::kAuthThenWrite},
        {"bzip2", AuthPolicy::kCommitPlusFetch},
    };
    for (const auto &p : points) {
        PointOutcome first = runPoint(p.workload, p.policy);
        PointOutcome again = runPoint(p.workload, p.policy);

        EXPECT_EQ(first.run.insts, again.run.insts) << p.workload;
        EXPECT_EQ(first.run.cycles, again.run.cycles) << p.workload;
        EXPECT_EQ(first.run.reason, again.run.reason) << p.workload;
        EXPECT_EQ(first.cycles, again.cycles) << p.workload;
        for (unsigned s = 0; s < first.stalls.size(); ++s)
            EXPECT_EQ(first.stalls[s], again.stalls[s])
                << p.workload << " stall cause " << s;
        EXPECT_EQ(first.stats, again.stats) << p.workload;
    }
}

// Profiler segment decomposition must not move across runs either.
TEST(EventLoop, ProfilerSegmentsDeterministic)
{
    auto profiled = []() {
        workloads::WorkloadParams params;
        params.workingSetBytes = 1 << 20;
        sim::SimConfig cfg = cfgFor(AuthPolicy::kAuthThenCommit);
        cfg.profileEnabled = true;
        sim::System system(cfg, workloads::build("mcf", params));
        system.fastForward(10000);
        system.measureTimed(20000, 20'000'000);
        return system.pathProfile();
    };
    obs::PathProfile first = profiled();
    obs::PathProfile again = profiled();
    EXPECT_EQ(first.demandTxns, again.demandTxns);
    for (unsigned s = 0; s < obs::kNumPathSegments; ++s)
        EXPECT_EQ(first.demandSegCycles[s], again.demandSegCycles[s])
            << "segment " << s;
}

// Two cold cores start in the same cycle and both miss on their first
// fetch: cpu0 runs first on the tie, so its counter-line fetch and
// instruction fetch reach the bus trace before cpu1's, all four at
// the same request cycle.
TEST(EventLoop, SameCycleCoresRunInCoreOrder)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    sim::SimConfig cfg = cfgFor(AuthPolicy::kAuthThenCommit);
    cfg.numCores = 2;
    sim::System system(cfg, workloads::build("mcf", params));
    system.hier().ctrl().busTrace().enable(true);
    system.measureTimed(200, 1'000'000);

    const std::vector<mem::BusTxn> &txns =
        system.hier().ctrl().busTrace().txns();
    ASSERT_GE(txns.size(), 4u);
    const unsigned clients[] = {0, 0, 1, 1};
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(txns[i].client, clients[i]) << "record " << i;
        EXPECT_EQ(txns[i].cycle, txns[0].cycle) << "record " << i;
    }
}

TEST(EventLoop, TxnArenaNeverLeaks)
{
    const std::uint64_t live0 = mem::txnArenaStats().live;

    // Direct churn: 10k timeline vectors allocated and destroyed.
    for (unsigned i = 0; i < 10000; ++i) {
        mem::Txn::Path path;
        for (unsigned s = 0; s < 1 + (i % 13); ++s)
            path.push_back(
                {Cycle(i + s), Addr(i * 64), mem::PathEvent::kRequest});
    }
    mem::TxnArenaStats after = mem::txnArenaStats();
    EXPECT_EQ(after.live, live0);
    EXPECT_GT(after.poolHits, 0u);

    // End-to-end churn: a timed window creates and retires real
    // transactions; everything must be back in the pool afterwards.
    {
        workloads::WorkloadParams params;
        params.workingSetBytes = 1 << 20;
        sim::System system(cfgFor(AuthPolicy::kAuthThenCommit),
                           workloads::build("mcf", params));
        system.fastForward(5000);
        system.measureTimed(10000, 10'000'000);
        EXPECT_EQ(mem::txnArenaStats().live, live0);
    }
    EXPECT_EQ(mem::txnArenaStats().live, live0);
}
