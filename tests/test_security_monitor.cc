/**
 * @file
 * Security monitor tests on hand-built bus traces: trace scanning,
 * leak predicates, horizon (exception-cycle) filtering, the Table-2
 * marker rules and the leak audit's exposure window.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/security_monitor.hh"
#include "mem/bus_trace.hh"

using namespace acp;
using namespace acp::core;
using namespace acp::mem;

namespace
{

BusTrace
makeTrace()
{
    BusTrace trace;
    trace.enable(true);
    trace.record(100, 0x1000, BusTxnKind::kInstrFetch);
    trace.record(150, 0x654000, BusTxnKind::kDataFetch);
    trace.record(200, 0x2000, BusTxnKind::kWriteback);
    trace.record(250, 0xdeadbeef, BusTxnKind::kIoOut);
    trace.record(300, 0x654040, BusTxnKind::kDataFetch);
    return trace;
}

} // namespace

TEST(BusTrace, DisabledRecordsNothing)
{
    BusTrace trace;
    trace.record(1, 0x1000, BusTxnKind::kDataFetch);
    EXPECT_TRUE(trace.txns().empty());
    trace.enable(true);
    trace.record(2, 0x1000, BusTxnKind::kDataFetch);
    EXPECT_EQ(trace.txns().size(), 1u);
}

TEST(SecurityMonitor, AddressEqualsMatchesLine)
{
    BusTrace trace = makeTrace();
    SecurityMonitor monitor(trace);

    LeakReport report = monitor.scan(
        SecurityMonitor::addressEquals(0x654008), kCycleNever);
    EXPECT_TRUE(report.leaked); // same 64B line as 0x654000
    EXPECT_EQ(report.firstLeakCycle, 150u);
    EXPECT_EQ(report.matchCount, 1u);

    report = monitor.scan(SecurityMonitor::addressEquals(0x654040),
                          kCycleNever);
    EXPECT_TRUE(report.leaked);
    EXPECT_EQ(report.firstLeakCycle, 300u);
}

TEST(SecurityMonitor, WritebacksAreNotFetchLeaks)
{
    BusTrace trace = makeTrace();
    SecurityMonitor monitor(trace);
    LeakReport report = monitor.scan(
        SecurityMonitor::addressEquals(0x2000), kCycleNever);
    EXPECT_FALSE(report.leaked);
}

TEST(SecurityMonitor, HorizonExcludesPostExceptionTraffic)
{
    BusTrace trace = makeTrace();
    SecurityMonitor monitor(trace);
    // Exception at cycle 150: the 0x654000 fetch (>= horizon) is not a
    // pre-detection leak.
    LeakReport report = monitor.scan(
        SecurityMonitor::addressEquals(0x654000), 150);
    EXPECT_FALSE(report.leaked);
    report = monitor.scan(SecurityMonitor::addressEquals(0x654000), 151);
    EXPECT_TRUE(report.leaked);
}

TEST(SecurityMonitor, IoOutPredicate)
{
    BusTrace trace = makeTrace();
    SecurityMonitor monitor(trace);
    EXPECT_TRUE(monitor.scan(SecurityMonitor::ioOutEquals(0xdeadbeef),
                             kCycleNever).leaked);
    EXPECT_FALSE(monitor.scan(SecurityMonitor::ioOutEquals(0xdeadbee0),
                              kCycleNever).leaked);
    // An address match on a data fetch must not satisfy the IO pred.
    EXPECT_FALSE(monitor.scan(SecurityMonitor::ioOutEquals(0x654000),
                              kCycleNever).leaked);
}

// ---------------------------------------------------------------- judging
//
// judgeMarkers on hand-built bus traces: the Table-2 rules that no
// staged exploit reaches, because every pinned run shows its markers
// before the exception and every probe shows its first marker.

namespace
{

constexpr Addr kGreater = 0x10000, kNotGreater = 0x20000;

/** A binary-search probe's two path markers, "greater" first. */
std::vector<BusPredicate>
probeMarkers()
{
    return {core::SecurityMonitor::addressEquals(kGreater),
            core::SecurityMonitor::addressEquals(kNotGreater)};
}

mem::BusTxn
fetchAt(Cycle cycle, Addr addr)
{
    return {cycle, addr, mem::BusTxnKind::kDataFetch, 0};
}

} // namespace

TEST(JudgeMarkers, OnlyTransactionsBeforeTheExceptionCount)
{
    // A marker at the exception cycle shows too late; one a cycle
    // earlier is a leak.
    std::vector<mem::BusTxn> txns = {fetchAt(5, 0x8000),
                                     fetchAt(100, kGreater)};
    MarkerVerdict at = judgeMarkers(txns, probeMarkers(), 100);
    EXPECT_FALSE(at.leaked);
    EXPECT_EQ(at.leakCount, 0u);
    EXPECT_EQ(at.firstLeakCycle, 0u);
    EXPECT_FALSE(at.firstMarker);

    MarkerVerdict before = judgeMarkers(txns, probeMarkers(), 101);
    EXPECT_TRUE(before.leaked);
    EXPECT_EQ(before.leakCount, 1u);
    EXPECT_EQ(before.firstLeakCycle, 100u);
    EXPECT_TRUE(before.firstMarker);
}

TEST(JudgeMarkers, TheSecondMarkerAloneIsALeak)
{
    std::vector<mem::BusTxn> txns = {fetchAt(7, 0x8000),
                                     fetchAt(40, kNotGreater + 8),
                                     fetchAt(90, kNotGreater)};
    MarkerVerdict v = judgeMarkers(txns, probeMarkers(), kCycleNever);
    EXPECT_TRUE(v.leaked);
    EXPECT_EQ(v.firstLeakCycle, 40u);
    EXPECT_EQ(v.leakCount, 2u);
    EXPECT_FALSE(v.firstMarker); // secret <= pivot
}

TEST(JudgeMarkers, BothMarkersSayNothing)
{
    std::vector<mem::BusTxn> txns = {fetchAt(30, kNotGreater),
                                     fetchAt(60, kGreater)};
    MarkerVerdict v = judgeMarkers(txns, probeMarkers(), 1000);
    EXPECT_FALSE(v.leaked);
    EXPECT_EQ(v.leakCount, 2u);
    EXPECT_EQ(v.firstLeakCycle, 30u);
    EXPECT_FALSE(v.firstMarker);
}

// ------------------------------------------------------------- leak audit
//
// auditLeaks on hand-built bus traces. Every case but the first opens
// the window [100, 200): the first bad fill's plaintext is usable at
// 100 and its verdict comes back at 200.

namespace
{

constexpr BadFill kWindow{40, 100, 200};

mem::BusTxn
recordAt(Cycle cycle, Addr addr, BusTxnKind kind)
{
    return {cycle, addr, kind, 0};
}

} // namespace

TEST(AuditLeaks, AnEmptyWindowCountsNothingNovel)
{
    // A novel line at 150 and a writeback: nothing is novel when no
    // fill failed, when the verdict came with the plaintext
    // (authen-then-issue) or when the fetch gate squashed the fill.
    const std::vector<mem::BusTxn> txns = {
        fetchAt(10, 0x1000), recordAt(120, 0x5000, BusTxnKind::kWriteback),
        fetchAt(150, 0x2000), fetchAt(300, 0x3000)};

    LeakAudit clean = auditLeaks(txns, std::nullopt);
    EXPECT_FALSE(clean.tamperDetected);
    EXPECT_EQ(clean.firstBadReq, kCycleNever);
    EXPECT_EQ(clean.firstBadUsable, kCycleNever);
    EXPECT_EQ(clean.firstBadVerdict, kCycleNever);
    EXPECT_EQ(clean.busTxnsScanned, 4u);
    EXPECT_EQ(clean.demandFetches, 3u);
    EXPECT_EQ(clean.novelExposuresInGap, 0u);
    EXPECT_EQ(clean.exposuresAfterVerdict, 0u);
    EXPECT_FALSE(clean.leakWindowOpen);

    LeakAudit issue = auditLeaks(txns, BadFill{90, 150, 150});
    EXPECT_TRUE(issue.tamperDetected);
    EXPECT_EQ(issue.firstBadReq, 90u);
    EXPECT_EQ(issue.firstBadUsable, 150u);
    EXPECT_EQ(issue.firstBadVerdict, 150u);
    EXPECT_EQ(issue.demandFetches, 3u);
    EXPECT_EQ(issue.novelExposuresInGap, 0u);
    EXPECT_EQ(issue.exposuresAfterVerdict, 2u); // at 150 and 300
    EXPECT_FALSE(issue.leakWindowOpen);

    LeakAudit squashed = auditLeaks(txns, BadFill{90});
    EXPECT_TRUE(squashed.tamperDetected);
    EXPECT_EQ(squashed.demandFetches, 3u);
    EXPECT_EQ(squashed.novelExposuresInGap, 0u);
    EXPECT_EQ(squashed.exposuresAfterVerdict, 0u);
    EXPECT_FALSE(squashed.leakWindowOpen);
}

TEST(AuditLeaks, OnlyLinesFirstSeenInsideTheWindowAreNovel)
{
    const std::vector<mem::BusTxn> txns = {
        fetchAt(60, 0x1000),
        fetchAt(100, 0x2000),  // first seen at usable: novel
        fetchAt(120, 0x2010),  // the same line again
        fetchAt(150, 0x1008),  // seen at 60: the same line
        fetchAt(199, 0x3000)}; // first seen a cycle before the verdict
    LeakAudit a = auditLeaks(txns, kWindow);
    EXPECT_TRUE(a.tamperDetected);
    EXPECT_EQ(a.demandFetches, 5u);
    EXPECT_EQ(a.novelExposuresInGap, 2u);
    EXPECT_EQ(a.exposuresAfterVerdict, 0u);
    EXPECT_TRUE(a.leakWindowOpen);
}

TEST(AuditLeaks, AFetchAtTheVerdictIsAfterTheWindow)
{
    const std::vector<mem::BusTxn> txns = {fetchAt(200, 0x4000),
                                           fetchAt(250, 0x5000)};
    LeakAudit a = auditLeaks(txns, kWindow);
    EXPECT_EQ(a.demandFetches, 2u);
    EXPECT_EQ(a.novelExposuresInGap, 0u);
    EXPECT_EQ(a.exposuresAfterVerdict, 2u);
    EXPECT_FALSE(a.leakWindowOpen);
}

TEST(AuditLeaks, OnlyInstructionAndDataFetchesAreDemandFetches)
{
    // Every record lands inside the window on a line never seen.
    const std::vector<mem::BusTxn> txns = {
        recordAt(110, 0x1000, BusTxnKind::kWriteback),
        recordAt(120, 0x2000, BusTxnKind::kCounterFetch),
        recordAt(130, 0x3000, BusTxnKind::kTreeNodeFetch),
        recordAt(140, 0x4000, BusTxnKind::kRemapFetch),
        recordAt(150, 0x5000, BusTxnKind::kIoOut),
        recordAt(160, 0x6000, BusTxnKind::kInstrFetch),
        recordAt(170, 0x7000, BusTxnKind::kDataFetch)};
    LeakAudit a = auditLeaks(txns, kWindow);
    EXPECT_EQ(a.busTxnsScanned, 7u);
    EXPECT_EQ(a.demandFetches, 2u);
    EXPECT_EQ(a.novelExposuresInGap, 2u);
    EXPECT_EQ(a.exposuresAfterVerdict, 0u);
}

TEST(AuditLeaks, RecordsAreScannedByCycle)
{
    // Recorded after its window fetch, the line's fetch at 60 still
    // comes first: the fetch at 150 is nothing new.
    LeakAudit late = auditLeaks({fetchAt(150, 0x1000), fetchAt(60, 0x1000)},
                                kWindow);
    EXPECT_EQ(late.busTxnsScanned, 2u);
    EXPECT_EQ(late.novelExposuresInGap, 0u);
    EXPECT_FALSE(late.leakWindowOpen);

    // Records with equal cycles stay in record order; no count depends
    // on that order, so both orders audit alike.
    const mem::BusTxn instr = recordAt(120, 0x2000, BusTxnKind::kInstrFetch);
    const mem::BusTxn data = fetchAt(120, 0x2020);
    const mem::BusTxn after = fetchAt(200, 0x2000);
    LeakAudit one = auditLeaks({after, instr, data}, kWindow);
    EXPECT_EQ(one.demandFetches, 3u);
    EXPECT_EQ(one.novelExposuresInGap, 1u);
    EXPECT_EQ(one.exposuresAfterVerdict, 1u);
    EXPECT_EQ(auditLeaks({data, after, instr}, kWindow), one);
}
