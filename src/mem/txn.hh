/**
 * @file
 * First-class memory transaction. Every off-chip access — a demand
 * fill, an instruction fetch, a writeback, and all the metadata
 * traffic it drags along (counter lines, tree nodes, remap entries) —
 * is described by one Txn object that SecureMemCtrl builds and
 * retires. The hierarchy hands the core a Txn too, but only its
 * folded outcome: an on-chip access never has a timeline.
 *
 * A Txn carries three things:
 *  - identity: the logical address, transaction kind, the gate tag of
 *    the triggering instruction and its RUU context (dynamic sequence
 *    number), and the request cycle;
 *  - outcome: the cycles the data becomes pipeline-usable / physically
 *    on-chip / verified, the authentication sequence, the functional
 *    MAC verdict, and the decrypted payload;
 *  - a timeline (controller transactions only): the ordered list of
 *    path events the access took through the shared resource model
 *    (request, MSHR admission, fetch-gate release, remap translation,
 *    counter availability, bus grants, DRAM beats, decrypt, verify).
 *    The timeline is the one record of a memory transaction: the path
 *    profiler aggregates it and the Chrome trace draws its spans.
 *
 * The timeline is kept sorted by cycle on insertion, so it is monotone
 * by construction even when a component records an earlier-cycle
 * event late (e.g. a tree-node fetch that finishes after decrypt).
 */

#ifndef ACP_MEM_TXN_HH
#define ACP_MEM_TXN_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/bus_trace.hh"

namespace acp::mem
{

// ----- timeline arena ----------------------------------------------------
//
// Every off-chip transaction builds a timeline. Its storage is drawn
// from a thread-local pooling arena: freed blocks are recycled
// by power-of-two size class instead of returned to the system
// allocator. The pool is per-thread (exp::submit runs points on a
// thread pool) and frees all pooled blocks at thread exit, so the
// sanitizer jobs see no leaks. Blocks may be freed on a different
// thread than they were allocated on; they simply enter that thread's
// pool.

namespace detail
{
void *arenaAllocate(std::size_t bytes);
void arenaDeallocate(void *p, std::size_t bytes) noexcept;
} // namespace detail

/** Arena observability (tests assert the pool never leaks). */
struct TxnArenaStats
{
    /** Total block requests served (pool hits + fresh allocations). */
    std::uint64_t allocs = 0;
    /** Requests served by recycling a pooled block. */
    std::uint64_t poolHits = 0;
    /** Blocks currently handed out and not yet returned. */
    std::uint64_t live = 0;
    /** High-water mark of @c live over the process lifetime (the
     *  sim.host.arena telemetry reports it as allocation pressure). */
    std::uint64_t liveHighWater = 0;
};

/** Snapshot of the (process-wide) arena counters. */
TxnArenaStats txnArenaStats();

/** Minimal allocator handle over the arena (stateless). */
template <typename T>
struct TxnAlloc
{
    using value_type = T;

    TxnAlloc() noexcept = default;
    template <typename U>
    TxnAlloc(const TxnAlloc<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(detail::arenaAllocate(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        detail::arenaDeallocate(p, n * sizeof(T));
    }
};

template <typename A, typename B>
bool
operator==(const TxnAlloc<A> &, const TxnAlloc<B> &)
{
    return true;
}

template <typename A, typename B>
bool
operator!=(const TxnAlloc<A> &, const TxnAlloc<B> &)
{
    return false;
}

/** Steps an off-chip access can take through the resource model. */
enum class PathEvent : std::uint8_t
{
    kRequest,          // request reaches the controller (first step)
    kMshrAdmit,        // admitted past the outstanding-fetch limit
    kFetchGateRelease, // authen-then-fetch gate released the bus grant
    kRemapTranslate,   // obfuscation translation resolved
    kCounterReady,     // line counter available (hit or fetched)
    kBusGrant,         // front-side bus granted — adversary sees addr
    kDramFirstBeat,    // critical word on the bus
    kDramComplete,     // full DRAM burst transferred
    kDecryptDone,      // plaintext available on-chip; MAC request posted
    kVerifyDone,       // authentication verdict available
    kWriteback,        // write burst completed
};

/** Stable display name of a path event. */
constexpr const char *
pathEventName(PathEvent ev)
{
    switch (ev) {
      case PathEvent::kRequest:          return "request";
      case PathEvent::kMshrAdmit:        return "mshr_admit";
      case PathEvent::kFetchGateRelease: return "fetch_gate_release";
      case PathEvent::kRemapTranslate:   return "remap_translate";
      case PathEvent::kCounterReady:     return "counter_ready";
      case PathEvent::kBusGrant:         return "bus_grant";
      case PathEvent::kDramFirstBeat:    return "dram_first_beat";
      case PathEvent::kDramComplete:     return "dram_complete";
      case PathEvent::kDecryptDone:      return "decrypt_done";
      case PathEvent::kVerifyDone:       return "verify_done";
      case PathEvent::kWriteback:        return "writeback";
    }
    return "?";
}

/** One timeline entry: what happened, when, at which physical addr. */
struct TxnStep
{
    Cycle cycle = 0;
    Addr addr = 0;
    PathEvent event = PathEvent::kRequest;

    bool
    operator==(const TxnStep &o) const
    {
        return cycle == o.cycle && addr == o.addr && event == o.event;
    }
};

/** The transaction. */
struct Txn
{
    // ----- identity ----------------------------------------------------
    /** Controller-assigned id (0 = never reached the controller). */
    std::uint64_t id = 0;
    /** Logical (pre-remap) address of the access. */
    Addr addr = 0;
    BusTxnKind kind = BusTxnKind::kDataFetch;
    /** LastRequest tag for the authen-then-fetch gate. */
    AuthSeq gateTag = kNoAuthSeq;
    /** Cycle the request left the originating component. */
    Cycle reqCycle = 0;
    /** Originating RUU context: dynamic instruction number (0=none). */
    std::uint64_t origin = 0;
    /** Requesting client (core) id; 0 in single-core systems. The id
     *  rides the whole timeline — metadata traffic a fill drags along
     *  is attributed to the demand client that caused it. */
    unsigned client = 0;

    // ----- outcome -----------------------------------------------------
    /** Cycle the data is usable by the pipeline (the control point's
     *  decision: decrypt completion, or verification under
     *  authen-then-issue; kCycleNever for squashed/failed fills). */
    Cycle ready = 0;
    /** Cycle the decrypted data is physically on-chip. */
    Cycle dataReady = 0;
    /** Cycle the authentication verdict is available. */
    Cycle verifyDone = 0;
    /** Auth request id (kNoAuthSeq when the policy never verifies). */
    AuthSeq authSeq = kNoAuthSeq;
    /** Functional integrity verdict (false == tampered). */
    bool macOk = true;
    /** Whether the authen-then-fetch gate delayed the bus grant. */
    bool gateDelayed = false;
    /**
     * Bus queueing of the *primary* transfer (the line transfer of
     * this transaction's own kind, not metadata traffic): the cycle
     * it could first have driven the bus and the cycle the arbiter
     * actually granted it. busGrantAt > busRequestAt means the grant
     * was contended — the window the core's bus_wait stall cause
     * charges. kCycleNever until a primary transfer happened.
     */
    Cycle busRequestAt = kCycleNever;
    Cycle busGrantAt = kCycleNever;
    /** Decrypted line payload (fetches only). */
    std::array<std::uint8_t, kExtLineBytes> data{};

    // ----- timeline (controller transactions only) ---------------------
    /** Arena-backed step storage (see TxnAlloc above). */
    using Path = std::vector<TxnStep, TxnAlloc<TxnStep>>;
    Path path;

    /** Record a path event, keeping the timeline sorted by cycle. */
    void note(PathEvent event, Cycle cycle, Addr at = 0);

    /** Cycle of the first occurrence of @p event (kCycleNever: none). */
    Cycle eventCycle(PathEvent event) const;

    /** Number of occurrences of @p event on the timeline. */
    unsigned eventCount(PathEvent event) const;

    /**
     * Fold a child transaction's outcome (e.g. the line fill behind a
     * cache miss) into this one: outcome cycles and the auth tag take
     * the max, the MAC verdict ANDs, gate delay ORs, and the first
     * primary bus window wins. The child's timeline is not copied:
     * the controller already retired it.
     */
    void merge(const Txn &child);
};

} // namespace acp::mem

#endif // ACP_MEM_TXN_HH
