/**
 * @file
 * Front-side bus arbiter: the single shared data-bus resource every
 * off-chip beat reserves a slot on. Data fills, MAC beats, counter
 * lines, tree nodes, remap-table entries and writebacks all pass
 * through here, so concurrent requests serialize exactly where the
 * hardware would (paper Sections 4.2.4, 4.3 — bus contention is the
 * dominant cost of authen-then-fetch and obfuscation).
 *
 * Like the DRAM model, the arbiter is a latency oracle: reserve() is
 * called in nondecreasing earliest-cycle order per requester and
 * returns the grant cycle while advancing the bus-free pointer. The
 * grant cycle is when the transfer physically drives the bus; it is
 * recorded on the owning Txn's timeline (kBusGrant). BusTrace — the
 * adversary's view — records at request time, the conservative bound
 * at which an attacker on the memory interface first sees the address.
 */

#ifndef ACP_MEM_BUS_HH
#define ACP_MEM_BUS_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/config.hh"

namespace acp::mem
{

/** The arbiter. */
class BusArbiter
{
  public:
    /**
     * One requester per core (cfg.numCores). With two or more,
     * per-client grant/wait stats (cpu<i>_grants,
     * cpu<i>_contended_grants, cpu<i>_grant_wait) and the cross-client
     * contention counter are registered; a single-core stat surface
     * keeps its classic shape.
     */
    explicit BusArbiter(const sim::SimConfig &cfg);

    /**
     * Reserve the bus for one transfer.
     *
     * The grant policy is first-come-first-served in arrival order:
     * System runs its cores earliest cycle first with ties to the
     * lowest core id, so same-cycle requests from different clients
     * are granted in a fixed, deterministic core order — the fair
     * round-robin-free arbiter of paper Section 4.3, with determinism
     * by construction.
     *
     * @param earliest first cycle the requester could drive the bus
     *        (bank ready, gate released, translation resolved)
     * @param beats transfer length in bus beats
     * @param client requesting core id
     * @return the grant cycle (>= earliest; the transfer occupies the
     *         bus until grant + beats * busClockRatio)
     */
    Cycle reserve(Cycle earliest, unsigned beats, unsigned client = 0);

    StatGroup &stats() { return stats_; }

    std::uint64_t contendedGrants() const
    {
        return contendedGrants_.value();
    }

  private:
    /** Per-client attribution (registered with two or more). */
    struct ClientStats
    {
        StatCounter grants;
        StatCounter contendedGrants;
        StatAverage grantWait;
    };

    const sim::SimConfig &cfg_;
    Cycle freeAt_ = 0;
    /** Client granted the bus most recently (cross-client detection). */
    unsigned lastOwner_ = 0;

    StatGroup stats_;
    StatCounter grants_;
    StatCounter contendedGrants_;
    StatCounter beats_;
    StatAverage grantWait_;
    StatCounter crossClientContended_;
    /** Indexed by client id; sized once, so stat pointers stay valid. */
    std::vector<ClientStats> clients_;
};

} // namespace acp::mem

#endif // ACP_MEM_BUS_HH
