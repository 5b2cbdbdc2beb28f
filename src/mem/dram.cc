#include "mem/dram.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace acp::mem
{

Dram::Dram(const sim::SimConfig &cfg, BusArbiter &bus)
    : cfg_(cfg), bus_(bus), banks_(cfg.dramBanks), stats_("dram")
{
    if (!isPowerOfTwo(cfg.dramBanks) || !isPowerOfTwo(cfg.dramRowBytes))
        acp_fatal("DRAM banks and row size must be powers of two");
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
    std::uint64_t row_global = addr / cfg_.dramRowBytes;
    unsigned bank_idx = unsigned(row_global & (cfg_.dramBanks - 1));
    std::uint64_t row = row_global >> floorLog2(cfg_.dramBanks);
    Bank &bank = banks_[bank_idx];

    Cycle start = req_cycle > bank.busyUntil ? req_cycle : bank.busyUntil;

    const Cycle ratio = cfg_.busClockRatio;
    Cycle access_lat;
    if (bank.rowOpen && bank.openRow == row) {
        ++pageHits_;
        access_lat = Cycle(cfg_.casLatency) * ratio;
    } else if (!bank.rowOpen) {
        ++rowMisses_;
        access_lat = Cycle(cfg_.rasToCasLatency + cfg_.casLatency) * ratio;
    } else {
        ++pageConflicts_;
        access_lat = Cycle(cfg_.prechargeLatency + cfg_.rasToCasLatency +
                           cfg_.casLatency) * ratio;
    }
    bank.rowOpen = true;
    bank.openRow = row;

    // Data transfer: one beat per bus clock, granted by the arbiter
    // all off-chip traffic shares.
    unsigned beats = unsigned(divCeil(bytes, cfg_.busWidthBytes));
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
