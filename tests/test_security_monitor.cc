/**
 * @file
 * Security monitor tests: trace scanning, leak predicates, and horizon
 * (exception-cycle) filtering.
 */

#include <gtest/gtest.h>

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
