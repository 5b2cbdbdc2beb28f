/**
 * @file
 * SDRAM timing model after Gries & Romer [7]: per-bank open-row state,
 * page-hit / row-miss / page-miss latency classes. Data transfers
 * reserve slots on the shared BusArbiter the caller supplies, so bank
 * activations overlap but beats serialize with every other bus user.
 * Follows the paper's Table 3: 200 MHz x 8 B bus, CAS 20 / RP 7 /
 * RCD 7 bus clocks, X-5-5-5 burst.
 *
 * The model is a latency oracle: access() is called in nondecreasing
 * request-time order and returns the completion cycle while updating
 * bank and bus state. This matches the SimpleScalar style of memory
 * modeling used in the paper.
 */

#ifndef ACP_MEM_DRAM_HH
#define ACP_MEM_DRAM_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/bus.hh"
#include "sim/config.hh"

namespace acp::mem
{

/** Completion info for one DRAM access. */
struct DramResult
{
    /** Cycle the transfer could first have driven the bus (bank row
     *  cycle done); busGrant - busRequest is pure arbiter queueing. */
    Cycle busRequest = 0;
    /** Cycle the bus arbiter granted the transfer (address visible). */
    Cycle busGrant = 0;
    /** Cycle the first beat of data is on the bus (critical word). */
    Cycle firstBeat = 0;
    /** Cycle the full transfer completes. */
    Cycle complete = 0;
};

/** Open-row SDRAM with banked structure behind a shared data bus. */
class Dram
{
  public:
    Dram(const sim::SimConfig &cfg, BusArbiter &bus);

    /**
     * Perform one access.
     * @param addr physical DRAM location (after any remapping)
     * @param req_cycle cycle the request reaches the memory controller
     * @param bytes transfer size (row activation covers the line)
     * @param is_write writes occupy bank+bus but CAS is write latency
     * @param client requesting core id, forwarded to the bus arbiter
     */
    DramResult access(Addr addr, Cycle req_cycle, unsigned bytes,
                      bool is_write, unsigned client = 0);

    StatGroup &stats() { return stats_; }

    std::uint64_t pageHits() const { return pageHits_.value(); }
    std::uint64_t rowMisses() const { return rowMisses_.value(); }
    std::uint64_t pageConflicts() const { return pageConflicts_.value(); }

  private:
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Cycle busyUntil = 0;
    };

    const sim::SimConfig &cfg_;
    BusArbiter &bus_;
    std::vector<Bank> banks_;

    StatGroup stats_;
    StatCounter accesses_;
    StatCounter pageHits_;
    StatCounter rowMisses_;
    StatCounter pageConflicts_;
    StatCounter writeAccesses_;
    StatAverage latency_;
};

} // namespace acp::mem

#endif // ACP_MEM_DRAM_HH
