/**
 * @file
 * Event-driven scheduler tests. Four contracts:
 *   - the event loop is deterministic: repeated runs of the same point
 *     produce the same run result, stall taxonomy, stat dump, and
 *     profiler segments, on several workload x policy points;
 *   - same-cycle wakes dispatch deterministically in attachment order
 *     (front attachments first), and re-arms keep that order;
 *   - attaching a component twice is a fatal error naming it;
 *   - the Txn timeline arena never leaks: churned blocks return to the
 *     pool and live counts come back to baseline.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/txn.hh"
#include "sim/config_io.hh"
#include "sim/scheduler.hh"
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

// A heap-ordered event loop with a deterministic tie-break must be
// exactly reproducible: same point, same bits, every time.
TEST(Scheduler, EventLoopDeterministic)
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
TEST(Scheduler, ProfilerSegmentsDeterministic)
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

namespace
{

/** Scripted component: logs its wakes and re-arms from a schedule. */
struct MockComponent final : sim::Component
{
    std::vector<std::pair<std::string, Cycle>> *log;
    std::vector<Cycle> rearms; // consumed front to back
    std::size_t next = 0;

    MockComponent(const char *name,
                  std::vector<std::pair<std::string, Cycle>> *l)
        : sim::Component(name), log(l)
    {
    }

    Cycle
    onWake(Cycle now) override
    {
        log->emplace_back(componentName(), now);
        if (next < rearms.size())
            return rearms[next++];
        return kCycleNever;
    }

    void visitStats(sim::StatGroupVisitor &) override {}
};

} // namespace

TEST(Scheduler, SameCycleWakesDispatchInAttachmentOrder)
{
    std::vector<std::pair<std::string, Cycle>> log;
    sim::Scheduler sched;
    MockComponent a("a", &log), b("b", &log), c("c", &log);
    sched.attach(a);
    sched.attach(b);
    sched.attach(c, /*front=*/true); // c dispatches first at equal cycles

    // All three due at cycle 5, enqueued in a scrambled order; a and b
    // re-arm for cycle 7 (same-cycle tie again) and b once more for 9.
    a.rearms = {7};
    b.rearms = {7, 9};
    b.wakeAt(5);
    a.wakeAt(5);
    c.wakeAt(5);
    sched.run();

    ASSERT_EQ(log.size(), 6u);
    EXPECT_EQ(log[0], std::make_pair(std::string("c"), Cycle(5)));
    EXPECT_EQ(log[1], std::make_pair(std::string("a"), Cycle(5)));
    EXPECT_EQ(log[2], std::make_pair(std::string("b"), Cycle(5)));
    EXPECT_EQ(log[3], std::make_pair(std::string("a"), Cycle(7)));
    EXPECT_EQ(log[4], std::make_pair(std::string("b"), Cycle(7)));
    EXPECT_EQ(log[5], std::make_pair(std::string("b"), Cycle(9)));
    EXPECT_EQ(sched.pendingWakes(), 0u);
}

// The double-attach fatal must name the component (its message once
// printed a std::string's bytes through %s).
TEST(SchedulerDeathTest, DoubleAttachNamesTheComponent)
{
    std::vector<std::pair<std::string, Cycle>> log;
    sim::Scheduler sched;
    MockComponent dup("twice-attached.core", &log);
    sched.attach(dup);
    EXPECT_EXIT(sched.attach(dup), ::testing::ExitedWithCode(1),
                "fatal: component 'twice-attached\\.core' attached twice");
}

TEST(Scheduler, EarlierWakeWins)
{
    std::vector<std::pair<std::string, Cycle>> log;
    sim::Scheduler sched;
    MockComponent a("a", &log);
    sched.attach(a);

    a.wakeAt(20);
    a.wakeAt(10); // earlier request supersedes the later one
    sched.run();

    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0], std::make_pair(std::string("a"), Cycle(10)));
}

TEST(Scheduler, TxnArenaNeverLeaks)
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
