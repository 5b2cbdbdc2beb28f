#include "mem/dram.hh"

namespace acp::mem
{

Dram::Dram(BusArbiter &bus) : bus_(bus), stats_("dram")
{
    stats_.addCounter("accesses", &accesses_);
    stats_.addCounter("page_hits", &pageHits_);
    stats_.addCounter("row_misses", &rowMisses_);
    stats_.addCounter("page_conflicts", &pageConflicts_);
    stats_.addCounter("writes", &writeAccesses_);
    stats_.addAverage("latency", &latency_);
}

DramResult
Dram::access(Addr addr, Cycle req_cycle, unsigned bytes, bool is_write,
             unsigned client)
{
    ++accesses_;
    if (is_write)
        ++writeAccesses_;

    // Row interleaving: consecutive rows map to consecutive banks.
    std::uint64_t row_global = addr / kDramRowBytes;
    unsigned bank_idx = unsigned(row_global & (kDramBanks - 1));
    std::uint64_t row = row_global >> floorLog2(kDramBanks);
    Bank &bank = banks_[bank_idx];

    Cycle start = req_cycle > bank.busyUntil ? req_cycle : bank.busyUntil;

    const Cycle ratio = kBusClockRatio;
    Cycle access_lat;
    if (bank.rowOpen && bank.openRow == row) {
        ++pageHits_;
        access_lat = Cycle(kCasLatency) * ratio;
    } else if (!bank.rowOpen) {
        ++rowMisses_;
        access_lat = Cycle(kRasToCasLatency + kCasLatency) * ratio;
    } else {
        ++pageConflicts_;
        access_lat =
            Cycle(kPrechargeLatency + kRasToCasLatency + kCasLatency) * ratio;
    }
    bank.rowOpen = true;
    bank.openRow = row;

    // Data transfer: one beat per bus clock, granted by the arbiter
    // all off-chip traffic shares.
    unsigned beats = unsigned(divCeil(bytes, kBusWidthBytes));
    if (beats == 0)
        beats = 1;
    Cycle bank_ready = start + access_lat;
    Cycle data_start = bus_.reserve(bank_ready, beats, client);
    Cycle complete = data_start + Cycle(beats) * ratio;

    // The bank frees after its own row cycle + burst readout; bus
    // queueing must NOT extend bank occupancy, or row activations
    // stop overlapping earlier transfers and random traffic diverges.
    bank.busyUntil = bank_ready + Cycle(beats) * ratio;

    latency_.sample(double(complete - req_cycle));

    DramResult res;
    res.busRequest = bank_ready;
    res.busGrant = data_start;
    res.firstBeat = data_start + ratio;
    res.complete = complete;
    return res;
}

} // namespace acp::mem
