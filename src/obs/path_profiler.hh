/**
 * @file
 * Transaction path profiler: aggregates the per-transaction PathEvent
 * timelines the secure memory controller records on every retired
 * mem::Txn into a critical-path latency attribution.
 *
 * Decomposition. The timeline is kept sorted by cycle, so the delta
 * between each pair of consecutive steps is charged to the *later*
 * step's segment and the per-segment charges telescope:
 *
 *     sum(segments) == lastStep.cycle - firstStep.cycle
 *
 * holds EXACTLY, for every transaction, including partial timelines
 * (gate-squashed fills that never touched the bus, MAC-fail fills
 * whose usability never materialised). The profiler panics on a
 * violation — it would mean the timeline invariant broke upstream.
 *
 * Two analyses ride on the decomposition:
 *  - a per-BusTxnKind x segment "where the cycles went" table backed
 *    by StatDistributions, plus a path-shape census (which event
 *    subsequences actually occur, RTL2MuPATH-style) and a top-N
 *    slowest-transaction list with full timelines;
 *  - a join against the core's stall taxonomy: demand transactions
 *    (origin != 0) accumulate their segments separately, so the
 *    report can say how much of core.stall.auth_issue/mem_data each
 *    segment explains.
 * The snapshot also carries the Table-2 leak audit, which is no part
 * of the profiler: sim::System fills it with core::auditLeaks, as an
 * unprofiled exploit run computes it.
 *
 * The profiler is strictly passive (it only ever reads retired
 * transactions), so a profiled run is bit-identical to an unprofiled
 * one; SimConfig::profileEnabled is therefore excluded from the
 * experiment digest, and profiled points are uncacheable.
 */

#ifndef ACP_OBS_PATH_PROFILER_HH
#define ACP_OBS_PATH_PROFILER_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/security_monitor.hh"
#include "mem/bus_trace.hh"
#include "mem/txn.hh"
#include "obs/stall.hh"

namespace acp::obs
{

/** Latency segments a transaction's end-to-end time decomposes into. */
enum class PathSegment : std::uint8_t
{
    kMshr,        // outstanding-fetch admission wait
    kGate,        // authen-then-fetch bus-grant hold
    kRemap,       // obfuscation translation
    kCounter,     // counter-line availability
    kBusQueue,    // bank row cycle + shared-bus grant queueing
    kDramBurst,   // beats on the bus (first beat .. complete)
    kDecrypt,     // ciphertext -> plaintext (pad or CBC chain)
    kVerify,      // auth engine queueing + occupancy until the verdict
    kWriteback,   // write burst completion
    kNumSegments,
};

constexpr unsigned kNumPathSegments = unsigned(PathSegment::kNumSegments);

/** Stable stat/display name of a segment. */
constexpr const char *
pathSegmentName(PathSegment seg)
{
    switch (seg) {
      case PathSegment::kMshr:         return "mshr";
      case PathSegment::kGate:         return "gate";
      case PathSegment::kRemap:        return "remap";
      case PathSegment::kCounter:      return "counter";
      case PathSegment::kBusQueue:     return "bus_queue";
      case PathSegment::kDramBurst:    return "dram_burst";
      case PathSegment::kDecrypt:      return "decrypt";
      case PathSegment::kVerify:       return "verify";
      case PathSegment::kWriteback:    return "writeback";
      case PathSegment::kNumSegments:  break;
    }
    return "?";
}

/**
 * Segment a timeline delta ending at @p event is charged to.
 * kRequest opens every controller timeline, so no delta ends at it:
 * it maps to kNumSegments, which decompose() rejects.
 */
constexpr PathSegment
segmentOfEvent(mem::PathEvent event)
{
    switch (event) {
      case mem::PathEvent::kRequest:          break;
      case mem::PathEvent::kMshrAdmit:        return PathSegment::kMshr;
      case mem::PathEvent::kFetchGateRelease: return PathSegment::kGate;
      case mem::PathEvent::kRemapTranslate:   return PathSegment::kRemap;
      case mem::PathEvent::kCounterReady:     return PathSegment::kCounter;
      case mem::PathEvent::kBusGrant:         return PathSegment::kBusQueue;
      case mem::PathEvent::kDramFirstBeat:    return PathSegment::kDramBurst;
      case mem::PathEvent::kDramComplete:     return PathSegment::kDramBurst;
      case mem::PathEvent::kDecryptDone:      return PathSegment::kDecrypt;
      case mem::PathEvent::kVerifyDone:       return PathSegment::kVerify;
      case mem::PathEvent::kWriteback:        return PathSegment::kWriteback;
    }
    return PathSegment::kNumSegments;
}

/** Per-segment cycle totals, indexed by PathSegment. */
using SegmentArray = std::array<std::uint64_t, kNumPathSegments>;

/** Captured per-segment distribution (plain data for reports/JSON). */
struct SegmentStat
{
    std::uint64_t count = 0; // timeline deltas charged to the segment
    std::uint64_t sum = 0;   // total cycles
    std::uint64_t min = 0;
    std::uint64_t max = 0;
};

/** One "where the cycles went" row: a BusTxnKind's aggregate. */
struct SegmentRow
{
    unsigned kind = 0; // mem::BusTxnKind value
    std::uint64_t count = 0;        // transactions
    std::uint64_t latencyTotal = 0; // sum of (last - first) cycles
    std::uint64_t latencyMin = 0;
    std::uint64_t latencyMax = 0;
    /** Log2 latency histogram (StatDistribution buckets). */
    std::vector<std::uint64_t> latencyBuckets;
    std::array<SegmentStat, kNumPathSegments> segs{};
};

/** One entry of the path-shape census. */
struct PathShape
{
    /** Event names joined with '>' (consecutive repeats collapsed). */
    std::string signature;
    std::uint64_t count = 0;
    std::uint64_t latencyTotal = 0;
    /** Transaction id of the first occurrence (for trace lookup). */
    std::uint64_t exampleId = 0;
};

/** One of the top-N slowest transactions, timeline included. */
struct SlowTxn
{
    std::uint64_t id = 0;
    std::uint64_t origin = 0;
    Addr addr = 0;
    unsigned kind = 0;
    Cycle reqCycle = 0;
    std::uint64_t latency = 0;
    bool macOk = true;
    std::vector<mem::TxnStep> path;
};

/** Plain-data aggregate snapshot of a profiled run. */
struct PathProfile
{
    std::string policy;
    std::uint64_t txns = 0;
    /** Transactions whose timeline had under two steps (no latency). */
    std::uint64_t degenerate = 0;
    std::vector<SegmentRow> kinds;  // sorted by kind value
    std::vector<PathShape> shapes;  // sorted by signature
    std::vector<SlowTxn> slowest;   // descending latency
    /** Demand-transaction (origin != 0) segment totals: the part of
     *  the table the core's load-stall causes can be joined against. */
    SegmentArray demandSegCycles{};
    std::uint64_t demandTxns = 0;
    /** Core stall counters at finalize (all-zero until provided). */
    StallArray stalls{};
    bool hasStalls = false;
    /** The leak audit of the same run (core::auditLeaks). */
    core::LeakAudit audit;
};

/** The profiler: a passive sink for retired transactions. */
class PathProfiler
{
  public:
    /** Keep the @p top_n slowest transactions with full timelines. */
    explicit PathProfiler(unsigned top_n = 8) : topN_(top_n) {}

    /** Record one retired transaction (called by the controller). */
    void record(const mem::Txn &txn);

    std::uint64_t txns() const { return txns_; }

    /**
     * Decompose @p txn's timeline into per-segment cycles. The sum
     * over segments equals *latency_out == last - first step cycle
     * exactly (telescoping over the sorted timeline).
     */
    static SegmentArray decompose(const mem::Txn &txn,
                                  std::uint64_t *latency_out);

    /** Collapsed event-name signature of a timeline (census key). */
    static std::string shapeSignature(const mem::Txn &txn);

    /**
     * Aggregate snapshot, the audit left empty. @p stalls adds the
     * core's stall counters (optional), @p policy the label.
     */
    PathProfile finalize(const StallArray *stalls, const char *policy) const;

  private:
    struct KindAgg
    {
        std::uint64_t count = 0;
        std::uint64_t latencyTotal = 0;
        StatDistribution latency;
        std::array<StatDistribution, kNumPathSegments> segs;
    };

    struct ShapeAgg
    {
        std::uint64_t count = 0;
        std::uint64_t latencyTotal = 0;
        std::uint64_t exampleId = 0;
    };

    unsigned topN_;
    std::uint64_t txns_ = 0;
    std::uint64_t degenerate_ = 0;
    std::map<unsigned, KindAgg> kinds_;   // ordered: deterministic output
    std::map<std::string, ShapeAgg> shapes_;
    std::vector<SlowTxn> slowest_;        // sorted: latency desc, id asc
    SegmentArray demandSeg_{};
    std::uint64_t demandTxns_ = 0;
};

} // namespace acp::obs

#endif // ACP_OBS_PATH_PROFILER_HH
