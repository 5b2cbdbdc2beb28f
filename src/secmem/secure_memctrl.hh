/**
 * @file
 * Secure memory controller: orchestrates every off-chip line transfer.
 *
 * Fetch path (L2 miss):
 *   1. MSHR admission (bounded outstanding fetches)
 *   2. authen-then-fetch gate: bus grant waits for the triggering
 *      instruction's LastRequest tag to verify (Section 4.2.4)
 *   3. address obfuscation: re-map translation (Section 4.3)
 *   4. counter lookup (counter cache; miss fetches the counter line)
 *      and counter-mode pad pre-computation overlapped with the fetch
 *   5. DRAM burst (line + MAC beats) granted by the shared BusArbiter —
 *      the address becomes visible to the adversary at the grant
 *   6. decrypt completes at max(data arrival, pad ready)  [Table 1]
 *   7. authentication request posted to the in-order engine; with the
 *      hash tree enabled the counter's tree path is verified too
 *
 * While something reads the retired transactions (an attached path
 * profiler or the keepRetired() record), every step is recorded on the
 * timeline of the mem::Txn the controller returns and retires; these
 * are the only timelines the simulator builds. All metadata traffic
 * (counter lines, tree nodes, remap entries, their dirty victims)
 * leaves through touchMetaLine and a controller-backed MetaMemPort,
 * which charges it to the same Txn.
 *
 * Writeback path (dirty L2 eviction): re-shuffle (obfuscation),
 * counter bump + new line version (functional), tree update, DRAM
 * write. Writes are fire-and-forget for the core but occupy banks and
 * bus, and dirty counter/remap/tree cache evictions generate further
 * traffic.
 */

#ifndef ACP_SECMEM_SECURE_MEMCTRL_HH
#define ACP_SECMEM_SECURE_MEMCTRL_HH

#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/security_monitor.hh"
#include "mem/bus.hh"
#include "mem/bus_trace.hh"
#include "mem/dram.hh"
#include "mem/txn.hh"
#include "secmem/auth_engine.hh"
#include "secmem/counter_predictor.hh"
#include "secmem/external_memory.hh"
#include "secmem/hash_tree.hh"
#include "secmem/meta_port.hh"
#include "secmem/remap.hh"
#include "sim/config.hh"

namespace acp::obs
{
class PathProfiler;
} // namespace acp::obs

namespace acp::secmem
{

/** Counter-mode pad generation latency (80 ns 256-bit Rijndael); a CBC
 *  chunk costs one such pass. */
constexpr unsigned kDecryptLatency = 80;
/** Extra bus beats per line fetch that carry the 64-bit MAC. */
constexpr unsigned kMacTransferBeats = 1;
/** Bytes one line fetch or writeback moves: the line and its MAC. */
constexpr unsigned kLineTransferBytes =
    kExtLineBytes + kMacTransferBeats * mem::kBusWidthBytes;

/** The controller. */
class SecureMemCtrl
{
  public:
    SecureMemCtrl(const sim::SimConfig &cfg, std::uint64_t seed);

    /** Own group, then engine / bus / dram / metadata sub-components
     *  in legacy dump order. */
    std::vector<StatGroup *> statGroups();

    /**
     * Fetch one line from external memory.
     * @param line_addr logical line address (L2-line aligned)
     * @param req_cycle cycle the request leaves the L2
     * @param gate_tag triggering instruction's LastRequest tag (for
     *        the authen-then-fetch gate; kNoAuthSeq = ungated)
     * @param kind bus transaction kind
     * @param warm functional-only (cache warmup): no timing updates
     * @param origin dynamic instruction number of the triggering RUU
     *        entry (0 = none, e.g. instruction fetch or warmup)
     * @param client requesting core id
     * @return the completed transaction; txn.ready already reflects
     *         the policy's usability decision
     *         (verification under authen-then-issue, decrypt
     *         completion otherwise; kCycleNever for gate-squashed or
     *         failed fills)
     */
    mem::Txn fetchLine(Addr line_addr, Cycle req_cycle, AuthSeq gate_tag,
                       mem::BusTxnKind kind, bool warm = false,
                       std::uint64_t origin = 0, unsigned client = 0);

    /** Write back one dirty line; txn.ready is the DRAM completion. */
    mem::Txn writebackLine(Addr line_addr, const std::uint8_t *data,
                           Cycle cycle, bool warm = false,
                           std::uint64_t origin = 0, unsigned client = 0);

    ExternalMemory &externalMemory() { return ext_; }
    AuthEngine &authEngine() { return engine_; }
    const AuthEngine &authEngine() const { return engine_; }
    mem::BusArbiter &busArbiter() { return bus_; }
    mem::Dram &dram() { return dram_; }
    mem::BusTrace &busTrace() { return trace_; }

    /** Attach (or detach with nullptr) a passive path-profiler sink:
     *  every retired (non-warm) transaction is handed to it, timeline
     *  included. */
    void setProfiler(obs::PathProfiler *profiler) { profiler_ = profiler; }

    /** The first retired fill whose MAC failed (none until one
     *  does): what core::auditLeaks windows the bus trace by. */
    const std::optional<core::BadFill> &firstBadFill() const
    {
        return firstBadFill_;
    }

    /** Keep a copy of every transaction retired from now on, timeline
     *  included (the Chrome trace's memory side). Passive. */
    void keepRetired() { keepRetired_ = true; }

    /** Transactions retired since keepRetired(), in retire order. */
    const std::vector<mem::Txn> &retired() const { return retired_; }

    StatGroup &stats() { return stats_; }

  private:
    /**
     * Metadata port bound to one transaction: counter-line, tree-node
     * and remap-entry reads (of @p read_kind) and their dirty victims'
     * writebacks flow through the shared bus/bank model and are noted
     * on the owning Txn's timeline. A warm port moves nothing, whatever
     * its kind (functional warmup only).
     */
    class MetaPort final : public MetaMemPort
    {
      public:
        MetaPort(SecureMemCtrl &ctrl, mem::Txn &txn,
                 mem::BusTxnKind read_kind, bool warm)
            : ctrl_(ctrl), txn_(txn), readKind_(read_kind), warm_(warm)
        {
        }

        Cycle
        read(Addr addr, Cycle cycle) const override
        {
            if (warm_)
                return cycle;
            return ctrl_.dramAccess(addr, cycle, kExtLineBytes, false,
                                    readKind_, txn_);
        }

        Cycle
        write(Addr addr, Cycle cycle) const override
        {
            if (warm_)
                return cycle;
            return ctrl_.dramAccess(addr, cycle, kExtLineBytes, true,
                                    mem::BusTxnKind::kWriteback, txn_);
        }

      private:
        SecureMemCtrl &ctrl_;
        mem::Txn &txn_;
        mem::BusTxnKind readKind_;
        bool warm_;
    };

    /** Admission control for outstanding fetches (MSHR limit). */
    Cycle admit(Cycle req_cycle);
    /** Bring @p line_addr's counter line on-chip through @p port
     *  (a kCounterFetch port), counting a miss. */
    MetaAccess touchCounter(Addr line_addr, Cycle cycle, bool make_dirty,
                            const MetaPort &port);
    /** One bus/bank transfer, charged to @p txn (trace at grant). */
    Cycle dramAccess(Addr addr, Cycle cycle, unsigned bytes, bool is_write,
                     mem::BusTxnKind kind, mem::Txn &txn);
    /** Latch the first bad fill, and hand a completed transaction to
     *  the profiler / trace list. */
    void retire(const mem::Txn &txn);
    /** Add a step to @p txn's timeline, only while something reads
     *  retired transactions: a run nothing observes builds none. */
    void
    note(mem::Txn &txn, mem::PathEvent event, Cycle cycle, Addr at)
    {
        if (profiler_ || keepRetired_)
            txn.note(event, cycle, at);
    }

    const sim::SimConfig &cfg_;
    /** Where the counter lines sit in external memory. */
    const MetaLayout layout_;
    ExternalMemory ext_;
    mem::BusArbiter bus_; // must outlive dram_ (shared resource)
    mem::Dram dram_;
    mem::BusTrace trace_;
    AuthEngine engine_;
    cache::Cache counterCache_;
    std::unique_ptr<HashTree> tree_;
    std::unique_ptr<RemapLayer> remap_;
    std::unique_ptr<CounterPredictor> predictor_;
    std::vector<Cycle> inflight_;
    std::optional<core::BadFill> firstBadFill_;
    obs::PathProfiler *profiler_ = nullptr;
    bool keepRetired_ = false;
    std::vector<mem::Txn> retired_;
    /** Controller-assigned transaction ids (deterministic). */
    std::uint64_t txnSeq_ = 0;

    StatGroup stats_;
    StatCounter fetches_;
    StatCounter writebacks_;
    StatCounter counterMisses_;
    StatCounter fetchGateStalls_;
    StatAverage fetchGateDelay_;
    StatAverage decryptGap_; // verifyDone - dataReady (the latency gap)
    StatAverage fillLatency_;
    StatDistribution decryptGapHist_;
    StatDistribution fillLatencyHist_;
};

} // namespace acp::secmem

#endif // ACP_SECMEM_SECURE_MEMCTRL_HH
