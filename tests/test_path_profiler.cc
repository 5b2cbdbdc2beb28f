/**
 * @file
 * Tests for the transaction path profiler: timeline ordering edge
 * cases on mem::Txn, the exact telescoping segment decomposition
 * (including partial MAC-fail timelines), per-policy segment-sum
 * exactness of the aggregated report, the Table-1 consistency of the
 * stall join, deterministic report output, the machine-checked Table-2
 * leak audit (and that a profiled tampered run simulates and audits
 * exactly as an unprofiled one), the new bus_wait stall cause, and the
 * Chrome-trace txn tracks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/auth_policy.hh"
#include "core/security_monitor.hh"
#include "obs/path_profiler.hh"
#include "obs/path_report.hh"
#include "obs/stall.hh"
#include "sim/attack_scenarios.hh"
#include "sim/system.hh"
#include "workloads/victims.hh"
#include "workloads/workloads.hh"

using namespace acp;
using core::AuthPolicy;
using mem::PathEvent;
using mem::Txn;

namespace
{

sim::SimConfig
smallConfig(AuthPolicy policy)
{
    sim::SimConfig cfg;
    cfg.policy = policy;
    cfg.memoryBytes = 16ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    cfg.profileEnabled = true;
    return cfg;
}

workloads::WorkloadParams
smallParams()
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 128 * 1024;
    return params;
}

/** Run a short profiled simulation and return its aggregate report. */
obs::PathProfile
runProfiled(AuthPolicy policy)
{
    sim::System system(smallConfig(policy),
                       workloads::build("mcf", smallParams()));
    system.fastForward(2000);
    system.measureTimed(3000, 3000 * 400);
    return system.pathProfile();
}

/** RAII scratch file. */
class ScratchFile
{
  public:
    explicit ScratchFile(const char *name) : path_(name)
    {
        std::remove(path_.c_str());
    }
    ~ScratchFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

class RecordingVisitor : public StatVisitor
{
  public:
    void
    onCounter(const std::string &name, std::uint64_t value) override
    {
        counters[name] = value;
    }

    std::map<std::string, std::uint64_t> counters;
};

std::uint64_t
segTotal(const obs::SegmentRow &row)
{
    std::uint64_t total = 0;
    for (const obs::SegmentStat &s : row.segs)
        total += s.sum;
    return total;
}

const obs::SegmentStat &
seg(const obs::SegmentRow &row, obs::PathSegment s)
{
    return row.segs[unsigned(s)];
}

const obs::SegmentRow *
findKind(const obs::PathProfile &profile, mem::BusTxnKind kind)
{
    for (const obs::SegmentRow &row : profile.kinds)
        if (row.kind == unsigned(kind))
            return &row;
    return nullptr;
}

} // namespace

// ---------------------------------------------------------------------
// Txn timeline edge cases.
// ---------------------------------------------------------------------

TEST(TxnTimeline, AbsentEventIsCycleNever)
{
    Txn txn;
    txn.note(PathEvent::kRequest, 5);

    EXPECT_EQ(txn.eventCycle(PathEvent::kRequest), 5u);
    EXPECT_EQ(txn.eventCycle(PathEvent::kVerifyDone), kCycleNever);
    EXPECT_EQ(txn.eventCount(PathEvent::kVerifyDone), 0u);

    Txn empty;
    EXPECT_EQ(empty.eventCycle(PathEvent::kRequest), kCycleNever);
}

// ---------------------------------------------------------------------
// Telescoping decomposition.
// ---------------------------------------------------------------------

TEST(PathDecompose, SumEqualsEndToEndLatencyExactly)
{
    Txn txn;
    txn.note(PathEvent::kRequest, 100, 0x40);
    txn.note(PathEvent::kMshrAdmit, 103, 0x40);
    txn.note(PathEvent::kCounterReady, 110, 0x40);
    txn.note(PathEvent::kBusGrant, 131, 0x40);
    txn.note(PathEvent::kDramFirstBeat, 139, 0x40);
    txn.note(PathEvent::kDramComplete, 170, 0x40);
    txn.note(PathEvent::kDecryptDone, 171, 0x40);
    txn.note(PathEvent::kVerifyDone, 320, 0x40);

    std::uint64_t latency = 0;
    obs::SegmentArray segs = obs::PathProfiler::decompose(txn, &latency);

    EXPECT_EQ(latency, 220u);
    std::uint64_t total = 0;
    for (std::uint64_t s : segs)
        total += s;
    EXPECT_EQ(total, latency);

    // Spot-check individual charges: each delta goes to the *later*
    // step's segment; both DRAM events charge dram_burst.
    EXPECT_EQ(segs[unsigned(obs::PathSegment::kMshr)], 3u);
    EXPECT_EQ(segs[unsigned(obs::PathSegment::kCounter)], 7u);
    EXPECT_EQ(segs[unsigned(obs::PathSegment::kBusQueue)], 21u);
    EXPECT_EQ(segs[unsigned(obs::PathSegment::kDramBurst)], 8u + 31u);
    EXPECT_EQ(segs[unsigned(obs::PathSegment::kDecrypt)], 1u);
    EXPECT_EQ(segs[unsigned(obs::PathSegment::kVerify)], 149u);
}

TEST(PathDecompose, PartialMacFailTimelineStillTelescopes)
{
    // A tampered fill: the verdict arrives but the line never became
    // pipeline-usable. The decomposition must stay exact on whatever
    // prefix of the path actually happened.
    Txn txn;
    txn.macOk = false;
    txn.note(PathEvent::kRequest, 50, 0x80);
    txn.note(PathEvent::kBusGrant, 70, 0x80);
    txn.note(PathEvent::kDramComplete, 120, 0x80);
    txn.note(PathEvent::kVerifyDone, 260, 0x80);

    std::uint64_t latency = 0;
    obs::SegmentArray segs = obs::PathProfiler::decompose(txn, &latency);
    EXPECT_EQ(latency, 210u);
    std::uint64_t total = 0;
    for (std::uint64_t s : segs)
        total += s;
    EXPECT_EQ(total, latency);

    // And the profiler happily records it (no panic, counted once).
    obs::PathProfiler profiler;
    profiler.record(txn);
    EXPECT_EQ(profiler.txns(), 1u);

    // Degenerate timelines (under two steps) carry no latency.
    Txn bare;
    bare.note(PathEvent::kRequest, 7);
    std::uint64_t bare_latency = 123;
    obs::SegmentArray bare_segs =
        obs::PathProfiler::decompose(bare, &bare_latency);
    EXPECT_EQ(bare_latency, 0u);
    for (std::uint64_t s : bare_segs)
        EXPECT_EQ(s, 0u);
}

TEST(PathDecompose, ShapeSignatureCollapsesRepeats)
{
    Txn txn;
    txn.note(PathEvent::kRequest, 1);
    txn.note(PathEvent::kDramFirstBeat, 5);
    txn.note(PathEvent::kDramFirstBeat, 6);
    txn.note(PathEvent::kDramComplete, 9);
    EXPECT_EQ(obs::PathProfiler::shapeSignature(txn),
              "request>dram_first_beat>dram_complete");
    EXPECT_EQ(obs::PathProfiler::shapeSignature(Txn{}), "");
}

// ---------------------------------------------------------------------
// Aggregated report from live runs.
// ---------------------------------------------------------------------

TEST(PathProfile, SegmentSumsAreExactForEveryPolicy)
{
    for (AuthPolicy policy :
         {AuthPolicy::kBaseline, AuthPolicy::kAuthThenIssue,
          AuthPolicy::kAuthThenWrite, AuthPolicy::kAuthThenCommit,
          AuthPolicy::kAuthThenFetch}) {
        obs::PathProfile profile = runProfiled(policy);
        EXPECT_EQ(profile.policy, core::policyName(policy));
        ASSERT_GT(profile.txns, 0u) << core::policyName(policy);
        ASSERT_FALSE(profile.kinds.empty());

        std::uint64_t shape_txns = 0;
        for (const obs::PathShape &shape : profile.shapes)
            shape_txns += shape.count;
        EXPECT_EQ(shape_txns, profile.txns)
            << "shape census must cover every transaction";

        for (const obs::SegmentRow &row : profile.kinds) {
            EXPECT_EQ(segTotal(row), row.latencyTotal)
                << core::policyName(policy) << " kind "
                << mem::busTxnKindName(mem::BusTxnKind(row.kind))
                << ": per-segment sums must telescope to the "
                << "end-to-end latency total";
            EXPECT_GT(row.count, 0u);
        }

        // Demand traffic exists and its segment totals are self-
        // consistent with the per-kind table (demand is a subset).
        EXPECT_GT(profile.demandTxns, 0u);
        ASSERT_TRUE(profile.hasStalls);
        ASSERT_FALSE(profile.slowest.empty());
        EXPECT_GE(profile.slowest.front().latency,
                  profile.slowest.back().latency);
    }
}

TEST(PathProfile, VerifySegmentMatchesAuthLatencyAndPolicy)
{
    sim::SimConfig cfg = smallConfig(AuthPolicy::kAuthThenIssue);

    obs::PathProfile issue = runProfiled(AuthPolicy::kAuthThenIssue);
    const obs::SegmentRow *data = findKind(issue, mem::BusTxnKind::kDataFetch);
    ASSERT_NE(data, nullptr);
    const obs::SegmentStat &verify = seg(*data, obs::PathSegment::kVerify);
    ASSERT_GT(verify.count, 0u);
    // The verify segment is the auth engine's occupancy: its mean is
    // the configured MAC latency (plus any engine queueing).
    EXPECT_GE(double(verify.sum) / double(verify.count),
              double(cfg.authLatency));

    // Baseline never verifies: the verify segment must be empty.
    obs::PathProfile base = runProfiled(AuthPolicy::kBaseline);
    const obs::SegmentRow *base_data =
        findKind(base, mem::BusTxnKind::kDataFetch);
    ASSERT_NE(base_data, nullptr);
    EXPECT_EQ(seg(*base_data, obs::PathSegment::kVerify).sum, 0u);
}

TEST(PathProfile, StallJoinReproducesTable1Ordering)
{
    // Table 1: authen-then-issue serialises the verify latency into
    // the load's life, so the core blames auth_issue; authen-then-
    // commit overlaps it and blames the commit gate instead.
    obs::PathProfile issue = runProfiled(AuthPolicy::kAuthThenIssue);
    obs::PathProfile commit = runProfiled(AuthPolicy::kAuthThenCommit);
    ASSERT_TRUE(issue.hasStalls);
    ASSERT_TRUE(commit.hasStalls);

    std::uint64_t issue_wait =
        issue.stalls[unsigned(obs::StallCause::kAuthIssue)];
    std::uint64_t commit_wait =
        commit.stalls[unsigned(obs::StallCause::kAuthIssue)];
    EXPECT_GT(issue_wait, 0u);
    EXPECT_EQ(commit_wait, 0u);
    EXPECT_GT(commit.stalls[unsigned(obs::StallCause::kAuthCommit)], 0u);

    // The issue-gate stall the core reports is explained by the
    // verify segments of the demand transactions it waited on: the
    // demand-side verify cycles must be of the same magnitude (the
    // join the report prints side by side).
    std::uint64_t issue_verify =
        issue.demandSegCycles[unsigned(obs::PathSegment::kVerify)];
    ASSERT_GT(issue_verify, 0u);
    EXPECT_GT(issue_wait * 2, issue_verify / 2)
        << "core auth_issue stall and demand verify cycles diverged "
        << "by more than 4x - the stall join is broken";
}

TEST(PathProfile, ReportOutputIsDeterministic)
{
    ScratchFile a("test_path_profiler_a.json");
    ScratchFile b("test_path_profiler_b.json");

    for (const std::string &path : {a.path(), b.path()}) {
        obs::PathProfile profile = runProfiled(AuthPolicy::kAuthThenCommit);
        ASSERT_TRUE(json::writeFile(path, [&](json::Writer &w) {
            obs::writePathProfile(w, profile);
        }));
    }

    std::string ja = slurp(a.path());
    std::string jb = slurp(b.path());
    ASSERT_FALSE(ja.empty());
    EXPECT_EQ(ja, jb) << "identical runs must profile bit-identically";
    EXPECT_NE(ja.find("\"policy\""), std::string::npos);
    EXPECT_NE(ja.find("\"bus_queue\""), std::string::npos);

    // The text report renders without tripping any assertion.
    obs::PathProfile profile = runProfiled(AuthPolicy::kAuthThenCommit);
    std::FILE *text = std::fopen(a.path().c_str(), "wb");
    ASSERT_NE(text, nullptr);
    obs::writePathProfileText(text, profile);
    std::fclose(text);
    EXPECT_NE(slurp(a.path()).find("transaction path profile"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Leak audit (Table 2, machine-checked).
// ---------------------------------------------------------------------

TEST(LeakAudit, PointerConversionMatchesTable2)
{
    // Authen-then-commit: the tampered pointer dereference reaches the
    // bus before the verdict - Table 2 classifies it as a leak, and
    // the audit's exposure window must agree with the per-exploit
    // predicate verdict.
    sim::ScenarioResult commit = sim::runExploit(
        sim::Exploit::kPointerConversion, AuthPolicy::kAuthThenCommit);
    EXPECT_TRUE(commit.leaked);
    EXPECT_TRUE(commit.audit.tamperDetected);
    ASSERT_NE(commit.audit.firstBadUsable, kCycleNever);
    ASSERT_NE(commit.audit.firstBadVerdict, kCycleNever);
    EXPECT_LT(commit.audit.firstBadUsable, commit.audit.firstBadVerdict);
    EXPECT_GT(commit.audit.novelExposuresInGap, 0u);
    EXPECT_TRUE(commit.audit.leakWindowOpen);
    EXPECT_GT(commit.audit.demandFetches, 0u);
    EXPECT_GT(commit.audit.busTxnsScanned, commit.audit.demandFetches);

    // Authen-then-issue: nothing tainted can issue, so no new address
    // escapes while the tampered line is unverified - no leak.
    sim::ScenarioResult issue = sim::runExploit(
        sim::Exploit::kPointerConversion, AuthPolicy::kAuthThenIssue);
    EXPECT_FALSE(issue.leaked);
    EXPECT_TRUE(issue.audit.tamperDetected);
    EXPECT_FALSE(issue.audit.leakWindowOpen);
    EXPECT_EQ(issue.audit.novelExposuresInGap, 0u);
}

namespace
{

/** What a tampered run leaves: every statistic, the run result and
 *  the leak audit. */
struct TamperedRun
{
    std::string stats;
    sim::RunResult run;
    core::LeakAudit audit;
};

/** runExploit's pointer-conversion run, staged by hand so it can run
 *  profiled; unprofiled, the audit comes from the bus trace alone. */
TamperedRun
runTampered(AuthPolicy policy, bool profiled)
{
    sim::SimConfig cfg;
    cfg.policy = policy;
    cfg.memoryBytes = 64ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    cfg.profileEnabled = profiled;
    workloads::PointerConversionVictim victim =
        workloads::buildPointerConversionVictim(1);
    sim::System system(cfg, std::move(victim.prog));
    secmem::SecureMemCtrl &ctrl = system.hier().ctrl();
    ctrl.busTrace().enable(true);
    std::uint8_t mask[8];
    for (unsigned i = 0; i < 8; ++i)
        mask[i] = std::uint8_t(victim.secretAddr >> (8 * i));
    ctrl.externalMemory().tamper(victim.nullPtrAddr, mask, 8);

    TamperedRun out;
    out.run = system.measureTimed(~0ULL >> 1, 100000);
    out.stats = system.dumpStats();
    out.audit = profiled ? system.pathProfile().audit
                         : core::auditLeaks(ctrl.busTrace().txns(),
                                            ctrl.firstBadFill());
    return out;
}

} // namespace

TEST(LeakAudit, ProfilerStaysPassiveOnATamperedRun)
{
    // Exploit runs are not profiled: a profiled tampered run must
    // simulate and audit exactly as an unprofiled one.
    for (AuthPolicy policy :
         {AuthPolicy::kAuthThenCommit, AuthPolicy::kAuthThenIssue}) {
        SCOPED_TRACE(core::policyName(policy));
        const TamperedRun plain = runTampered(policy, false);
        const TamperedRun profiled = runTampered(policy, true);
        EXPECT_EQ(profiled.stats, plain.stats);
        EXPECT_EQ(profiled.run.insts, plain.run.insts);
        EXPECT_EQ(profiled.run.cycles, plain.run.cycles);
        EXPECT_EQ(profiled.run.ipc, plain.run.ipc);
        EXPECT_EQ(profiled.run.reason, plain.run.reason);
        EXPECT_TRUE(plain.audit.tamperDetected);
        EXPECT_EQ(profiled.audit, plain.audit);
        EXPECT_EQ(sim::runExploit(sim::Exploit::kPointerConversion, policy)
                      .audit,
                  plain.audit);
    }
}

// ---------------------------------------------------------------------
// bus_wait stall cause (satellite a).
// ---------------------------------------------------------------------

TEST(BusWaitStall, ChargedWhenGrantIsContended)
{
    sim::System system(smallConfig(AuthPolicy::kAuthThenIssue),
                       workloads::build("mcf", smallParams()));
    system.fastForward(2000);
    system.measureTimed(3000, 3000 * 400);

    RecordingVisitor stats;
    system.visitStats(stats);

    ASSERT_EQ(stats.counters.count("core.stall.bus_wait"), 1u);
    EXPECT_GT(stats.counters["core.stall.bus_wait"], 0u)
        << "metadata traffic contends the shared bus on mcf - some "
        << "load wait must be attributed to the grant queue";

    // The new cause still partitions: exhaustiveness over all causes
    // (the full five-policy invariant lives in test_stats).
    std::uint64_t stalls = 0;
    for (unsigned i = 0; i < obs::kNumStallCauses; ++i)
        stalls += stats.counters[std::string("core.stall.") +
                                 obs::stallCauseName(obs::StallCause(i))];
    EXPECT_EQ(stalls, stats.counters["core.cycles"] -
                          stats.counters["core.commit_active_cycles"]);
}

// ---------------------------------------------------------------------
// Chrome trace txn tracks.
// ---------------------------------------------------------------------

TEST(TraceJson, EmitsAsyncTxnSpans)
{
    ScratchFile file("test_path_profiler_trace.json");
    sim::SimConfig cfg = smallConfig(AuthPolicy::kAuthThenCommit);
    sim::System system(cfg, workloads::build("mcf", smallParams()));
    system.fastForward(1000);
    system.enableTrace();
    system.measureTimed(1000, 1000 * 400);

    ASSERT_FALSE(system.hier().ctrl().retired().empty());
    ASSERT_TRUE(system.writeTrace(file.path()));

    std::string json = slurp(file.path());
    EXPECT_NE(json.find("\"cat\": \"txn\""), std::string::npos)
        << "profiled timelines must render as async txn spans";
    EXPECT_NE(json.find("\"dram_burst\""), std::string::npos);
}
