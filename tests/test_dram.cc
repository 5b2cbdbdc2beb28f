/**
 * @file
 * SDRAM timing model tests: page-hit/row-miss/page-conflict latency
 * ordering, bus serialization, and bank parallelism.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"

using namespace acp;
using namespace acp::mem;

TEST(Dram, RowMissThenPageHit)
{
    BusArbiter bus(1);
    Dram dram(bus);

    // First access to a closed bank: RCD + CAS.
    DramResult first = dram.access(0x0, 0, 64, false);
    Cycle expect_lat =
        Cycle(kRasToCasLatency + kCasLatency) * kBusClockRatio +
        Cycle(64 / kBusWidthBytes) * kBusClockRatio;
    EXPECT_EQ(first.complete, expect_lat);
    EXPECT_EQ(dram.rowMisses(), 1u);

    // Same row, after the first completes: page hit, CAS only.
    DramResult second = dram.access(0x40, first.complete, 64, false);
    Cycle hit_lat = Cycle(kCasLatency) * kBusClockRatio +
                    Cycle(64 / kBusWidthBytes) * kBusClockRatio;
    EXPECT_EQ(second.complete - first.complete, hit_lat);
    EXPECT_EQ(dram.pageHits(), 1u);
}

TEST(Dram, PageConflictCostsPrecharge)
{
    BusArbiter bus(1);
    Dram dram(bus);

    dram.access(0x0, 0, 64, false);
    // Another row in the same bank: banks interleave per row, so the
    // conflicting address is rowBytes * banks away.
    Addr conflict = Addr(kDramRowBytes) * kDramBanks;
    Cycle t = 10000;
    DramResult res = dram.access(conflict, t, 64, false);
    Cycle conflict_lat =
        Cycle(kPrechargeLatency + kRasToCasLatency + kCasLatency) *
            kBusClockRatio +
        Cycle(64 / kBusWidthBytes) * kBusClockRatio;
    EXPECT_EQ(res.complete - t, conflict_lat);
    EXPECT_EQ(dram.pageConflicts(), 1u);
}

TEST(Dram, LatencyOrdering)
{
    // page hit < row miss < page conflict, by construction.
    Cycle hit = Cycle(kCasLatency) * kBusClockRatio;
    Cycle miss = Cycle(kRasToCasLatency + kCasLatency) * kBusClockRatio;
    Cycle conflict = Cycle(kPrechargeLatency + kRasToCasLatency +
                           kCasLatency) * kBusClockRatio;
    EXPECT_LT(hit, miss);
    EXPECT_LT(miss, conflict);
}

TEST(Dram, BusSerializesConcurrentAccesses)
{
    BusArbiter bus(1);
    Dram dram(bus);

    // Two simultaneous accesses to different banks: row activation
    // overlaps, but data transfers share the bus.
    DramResult a = dram.access(0x0, 0, 64, false);
    DramResult b = dram.access(Addr(kDramRowBytes), 0, 64, false);
    Cycle transfer = Cycle(64 / kBusWidthBytes) * kBusClockRatio;
    EXPECT_GE(b.complete, a.complete + transfer);
}

TEST(Dram, BankParallelismBeatsSameBank)
{
    BusArbiter bus_par(1), bus_ser(1);
    Dram bank_par(bus_par), bank_ser(bus_ser);

    // Different banks issued back to back.
    bank_par.access(0x0, 0, 64, false);
    DramResult par = bank_par.access(Addr(kDramRowBytes), 0, 64, false);

    // Same bank, different rows (conflict) issued back to back.
    bank_ser.access(0x0, 0, 64, false);
    DramResult ser = bank_ser.access(
        Addr(kDramRowBytes) * kDramBanks, 0, 64, false);

    EXPECT_LT(par.complete, ser.complete);
}

TEST(Dram, FirstBeatBeforeComplete)
{
    BusArbiter bus(1);
    Dram dram(bus);
    DramResult res = dram.access(0x100, 0, 64, false);
    EXPECT_LT(res.firstBeat, res.complete);
}

TEST(Dram, SmallTransferUsesOneBeat)
{
    BusArbiter bus(1);
    Dram dram(bus);
    DramResult res = dram.access(0x0, 0, 4, false);
    Cycle expect = Cycle(kRasToCasLatency + kCasLatency) * kBusClockRatio +
                   Cycle(1) * kBusClockRatio;
    EXPECT_EQ(res.complete, expect);
}
