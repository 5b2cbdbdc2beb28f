/**
 * @file
 * Structured event tracing for the secure pipeline: a fixed-capacity
 * ring buffer of small typed events, recorded by the core and the
 * secure memory controller as the simulation runs.
 *
 * Tracing is strictly passive: recording never changes any timing or
 * architectural decision, so a traced run is bit-identical to an
 * untraced one. Components hold a nullable TraceBuffer pointer; with
 * SimConfig::traceMask == 0 no buffer exists and the record sites are
 * a single null check. Category filtering happens inside record()
 * against the mask the buffer was built with. For builds that must
 * not even carry the null checks, defining ACP_OBS_NO_TRACE compiles
 * the ACP_TRACE record macro out entirely.
 *
 * Events carry their own cycle stamps, so a component may record a
 * future-dated event (e.g. the controller records the verify-done
 * event of a just-posted request at post time). The buffer preserves
 * record order; sinks that need time order sort on the stamp.
 */

#ifndef ACP_OBS_TRACE_HH
#define ACP_OBS_TRACE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace acp::obs
{

/** Event categories (bits of SimConfig::traceMask). */
enum TraceCat : std::uint32_t
{
    /** Pipeline progress: fetch / issue / commit / squash. */
    kCatPipeline = 1u << 0,
    /** Authentication lifecycle: request → data/hash arrival →
     *  verify done → gate release. */
    kCatAuth = 1u << 1,
    /** Fetch-gate (bus-grant) stall begin/end. */
    kCatGate = 1u << 2,
    /** Front-side bus grants (one per DRAM transfer, any kind). */
    kCatBus = 1u << 3,
    /** Per-transaction path timelines (one event per TxnStep). */
    kCatPath = 1u << 4,

    kCatAll = 0xffffffffu,
};

/** Typed trace events. Operand meaning is per-kind (see the schema
 *  table in docs/OBSERVABILITY.md). */
enum class TraceEventKind : std::uint8_t
{
    kFetch,         // a=pc
    kIssue,         // a=pc, b=dynamic seq
    kCommit,        // a=pc, b=dynamic seq
    kSquash,        // a=mispredicting pc, b=instructions squashed
    kAuthRequest,   // a=auth seq, b=line addr        (cycle=request)
    kAuthDataArrive,// a=auth seq, b=line addr        (cycle=data+MAC on-chip)
    kAuthVerifyDone,// a=auth seq, b=mac ok (0/1)     (cycle=verdict)
    kGateRelease,   // a=auth seq (gate tag), b=pc    (commit gate opens)
    kFetchGateBegin,// a=stall id, b=gate tag, c=line addr
    kFetchGateEnd,  // a=stall id, b=gate tag, c=line addr
    kBusGrant,      // a=txn id, b=line addr, c=bus txn kind (cycle=grant)
    kTxnStep,       // a=txn id, b=path event | bus txn kind << 8, c=addr
};

/** One recorded event. */
struct TraceEvent
{
    Cycle cycle = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    TraceEventKind kind = TraceEventKind::kFetch;

    bool
    operator==(const TraceEvent &o) const
    {
        return cycle == o.cycle && a == o.a && b == o.b && c == o.c &&
               kind == o.kind;
    }
};

/** Category of an event kind (for mask filtering). */
constexpr TraceCat
traceKindCat(TraceEventKind k)
{
    switch (k) {
      case TraceEventKind::kFetch:
      case TraceEventKind::kIssue:
      case TraceEventKind::kCommit:
      case TraceEventKind::kSquash:
        return kCatPipeline;
      case TraceEventKind::kAuthRequest:
      case TraceEventKind::kAuthDataArrive:
      case TraceEventKind::kAuthVerifyDone:
      case TraceEventKind::kGateRelease:
        return kCatAuth;
      case TraceEventKind::kFetchGateBegin:
      case TraceEventKind::kFetchGateEnd:
        return kCatGate;
      case TraceEventKind::kBusGrant:
        return kCatBus;
      case TraceEventKind::kTxnStep:
        return kCatPath;
    }
    return kCatPipeline;
}

/** The ring buffer. */
class TraceBuffer
{
  public:
    /** Default capacity: 64K events (~2.5 MB). */
    static constexpr std::size_t kDefaultCapacity = 1u << 16;

    explicit TraceBuffer(std::uint32_t mask,
                         std::size_t capacity = kDefaultCapacity);

    /** The category mask this buffer records. */
    std::uint32_t mask() const { return mask_; }

    /** True when any kind of category @p cat would be recorded. */
    bool wants(std::uint32_t cat) const { return (mask_ & cat) != 0; }

    /** Record one event (dropped when its category is masked off). */
    void
    record(TraceEventKind kind, Cycle cycle, std::uint64_t a,
           std::uint64_t b = 0, std::uint64_t c = 0)
    {
        if (!(mask_ & traceKindCat(kind)))
            return;
        TraceEvent &ev = ring_[writeAt_];
        ev.cycle = cycle;
        ev.a = a;
        ev.b = b;
        ev.c = c;
        ev.kind = kind;
        writeAt_ = (writeAt_ + 1) % ring_.size();
        if (size_ < ring_.size())
            ++size_;
        ++recorded_;
    }

    /** Events currently held (<= capacity). */
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return ring_.size(); }
    /** Total events ever recorded (recorded() - size() were dropped). */
    std::uint64_t recorded() const { return recorded_; }

    /** Held events, oldest first (copies out of the ring). */
    std::vector<TraceEvent> events() const;

    /** Visit held events oldest-first without copying. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        std::size_t start = (writeAt_ + ring_.size() - size_) % ring_.size();
        for (std::size_t i = 0; i < size_; ++i)
            fn(ring_[(start + i) % ring_.size()]);
    }

  private:
    std::uint32_t mask_;
    std::vector<TraceEvent> ring_;
    std::size_t writeAt_ = 0;
    std::size_t size_ = 0;
    std::uint64_t recorded_ = 0;
};

} // namespace acp::obs

/**
 * Record-site macro: compiles out entirely under ACP_OBS_NO_TRACE;
 * otherwise a null check plus the masked record call.
 */
#ifdef ACP_OBS_NO_TRACE
#define ACP_TRACE(buf, ...) ((void)0)
#else
#define ACP_TRACE(buf, ...)                                                  \
    do {                                                                     \
        if (buf)                                                             \
            (buf)->record(__VA_ARGS__);                                      \
    } while (0)
#endif

#endif // ACP_OBS_TRACE_HH
