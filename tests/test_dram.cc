/**
 * @file
 * SDRAM timing model tests: page-hit/row-miss/page-conflict latency
 * ordering, bus serialization, and bank parallelism.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "sim/config.hh"

using namespace acp;
using namespace acp::mem;

namespace
{

sim::SimConfig
cfg()
{
    return sim::SimConfig{};
}

} // namespace

TEST(Dram, RowMissThenPageHit)
{
    sim::SimConfig c = cfg();
    BusArbiter bus(c);
    Dram dram(c, bus);

    // First access to a closed bank: RCD + CAS.
    DramResult first = dram.access(0x0, 0, 64, false);
    Cycle expect_lat =
        Cycle(c.rasToCasLatency + c.casLatency) * c.busClockRatio +
        Cycle(64 / c.busWidthBytes) * c.busClockRatio;
    EXPECT_EQ(first.complete, expect_lat);
    EXPECT_EQ(dram.rowMisses(), 1u);

    // Same row, after the first completes: page hit, CAS only.
    DramResult second = dram.access(0x40, first.complete, 64, false);
    Cycle hit_lat = Cycle(c.casLatency) * c.busClockRatio +
                    Cycle(64 / c.busWidthBytes) * c.busClockRatio;
    EXPECT_EQ(second.complete - first.complete, hit_lat);
    EXPECT_EQ(dram.pageHits(), 1u);
}

TEST(Dram, PageConflictCostsPrecharge)
{
    sim::SimConfig c = cfg();
    BusArbiter bus(c);
    Dram dram(c, bus);

    dram.access(0x0, 0, 64, false);
    // Another row in the same bank: banks interleave per row, so the
    // conflicting address is rowBytes * banks away.
    Addr conflict = Addr(c.dramRowBytes) * c.dramBanks;
    Cycle t = 10000;
    DramResult res = dram.access(conflict, t, 64, false);
    Cycle conflict_lat =
        Cycle(c.prechargeLatency + c.rasToCasLatency + c.casLatency) *
            c.busClockRatio +
        Cycle(64 / c.busWidthBytes) * c.busClockRatio;
    EXPECT_EQ(res.complete - t, conflict_lat);
    EXPECT_EQ(dram.pageConflicts(), 1u);
}

TEST(Dram, LatencyOrdering)
{
    // page hit < row miss < page conflict, by construction.
    sim::SimConfig c = cfg();
    Cycle hit = Cycle(c.casLatency) * c.busClockRatio;
    Cycle miss = Cycle(c.rasToCasLatency + c.casLatency) * c.busClockRatio;
    Cycle conflict = Cycle(c.prechargeLatency + c.rasToCasLatency +
                           c.casLatency) * c.busClockRatio;
    EXPECT_LT(hit, miss);
    EXPECT_LT(miss, conflict);
}

TEST(Dram, BusSerializesConcurrentAccesses)
{
    sim::SimConfig c = cfg();
    BusArbiter bus(c);
    Dram dram(c, bus);

    // Two simultaneous accesses to different banks: row activation
    // overlaps, but data transfers share the bus.
    DramResult a = dram.access(0x0, 0, 64, false);
    DramResult b = dram.access(Addr(c.dramRowBytes), 0, 64, false);
    Cycle transfer = Cycle(64 / c.busWidthBytes) * c.busClockRatio;
    EXPECT_GE(b.complete, a.complete + transfer);
}

TEST(Dram, BankParallelismBeatsSameBank)
{
    sim::SimConfig c = cfg();
    BusArbiter bus_par(c), bus_ser(c);
    Dram bank_par(c, bus_par), bank_ser(c, bus_ser);

    // Different banks issued back to back.
    bank_par.access(0x0, 0, 64, false);
    DramResult par = bank_par.access(Addr(c.dramRowBytes), 0, 64, false);

    // Same bank, different rows (conflict) issued back to back.
    bank_ser.access(0x0, 0, 64, false);
    DramResult ser = bank_ser.access(
        Addr(c.dramRowBytes) * c.dramBanks, 0, 64, false);

    EXPECT_LT(par.complete, ser.complete);
}

TEST(Dram, FirstBeatBeforeComplete)
{
    sim::SimConfig c = cfg();
    BusArbiter bus(c);
    Dram dram(c, bus);
    DramResult res = dram.access(0x100, 0, 64, false);
    EXPECT_LT(res.firstBeat, res.complete);
}

TEST(Dram, SmallTransferUsesOneBeat)
{
    sim::SimConfig c = cfg();
    BusArbiter bus(c);
    Dram dram(c, bus);
    DramResult res = dram.access(0x0, 0, 4, false);
    Cycle expect = Cycle(c.rasToCasLatency + c.casLatency) * c.busClockRatio +
                   Cycle(1) * c.busClockRatio;
    EXPECT_EQ(res.complete, expect);
}
