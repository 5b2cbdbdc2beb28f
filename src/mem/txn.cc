#include "mem/txn.hh"

#include <algorithm>
#include <atomic>
#include <new>

namespace acp::mem
{

// ----- timeline arena ----------------------------------------------------

namespace
{

// Size classes are powers of two from 64 B to 64 KB; anything larger
// (which a Txn timeline never reaches) falls through to operator new.
constexpr unsigned kMinClassLog2 = 6;
constexpr unsigned kMaxClassLog2 = 16;

unsigned
classLog2(std::size_t bytes)
{
    unsigned log2 = kMinClassLog2;
    while ((std::size_t(1) << log2) < bytes)
        ++log2;
    return log2;
}

// Process-wide counters: blocks may be freed on a different thread
// than they were allocated on (Result objects cross the Runner's
// worker/main boundary), so the live count must be global.
std::atomic<std::uint64_t> arenaAllocs{0};
std::atomic<std::uint64_t> arenaPoolHits{0};
std::atomic<std::uint64_t> arenaLive{0};
std::atomic<std::uint64_t> arenaLiveHighWater{0};

struct ArenaPool
{
    std::vector<void *> free[kMaxClassLog2 + 1];

    /** Runs at thread exit: return every pooled block. */
    ~ArenaPool()
    {
        for (auto &list : free)
            for (void *block : list)
                ::operator delete(block);
    }
};

ArenaPool &
pool()
{
    thread_local ArenaPool p;
    return p;
}

} // namespace

namespace detail
{

void *
arenaAllocate(std::size_t bytes)
{
    arenaAllocs.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t live =
        arenaLive.fetch_add(1, std::memory_order_relaxed) + 1;
    // Lock-free max: racing threads may each see a stale high water,
    // but the CAS loop converges on the true maximum.
    std::uint64_t hw = arenaLiveHighWater.load(std::memory_order_relaxed);
    while (live > hw &&
           !arenaLiveHighWater.compare_exchange_weak(
               hw, live, std::memory_order_relaxed)) {
    }
    if (bytes > (std::size_t(1) << kMaxClassLog2))
        return ::operator new(bytes);
    unsigned log2 = classLog2(bytes);
    std::vector<void *> &list = pool().free[log2];
    if (!list.empty()) {
        arenaPoolHits.fetch_add(1, std::memory_order_relaxed);
        void *block = list.back();
        list.pop_back();
        return block;
    }
    return ::operator new(std::size_t(1) << log2);
}

void
arenaDeallocate(void *p, std::size_t bytes) noexcept
{
    arenaLive.fetch_sub(1, std::memory_order_relaxed);
    if (bytes > (std::size_t(1) << kMaxClassLog2)) {
        ::operator delete(p);
        return;
    }
    pool().free[classLog2(bytes)].push_back(p);
}

} // namespace detail

TxnArenaStats
txnArenaStats()
{
    TxnArenaStats out;
    out.allocs = arenaAllocs.load(std::memory_order_relaxed);
    out.poolHits = arenaPoolHits.load(std::memory_order_relaxed);
    out.live = arenaLive.load(std::memory_order_relaxed);
    out.liveHighWater =
        arenaLiveHighWater.load(std::memory_order_relaxed);
    return out;
}

void
Txn::note(PathEvent event, Cycle cycle, Addr at)
{
    // Insert after any step with the same cycle: equal-cycle events
    // keep record order, later-noted earlier events sort into place.
    auto pos = std::upper_bound(
        path.begin(), path.end(), cycle,
        [](Cycle c, const TxnStep &s) { return c < s.cycle; });
    path.insert(pos, TxnStep{cycle, at, event});
}

Cycle
Txn::eventCycle(PathEvent event) const
{
    for (const TxnStep &s : path)
        if (s.event == event)
            return s.cycle;
    return kCycleNever;
}

unsigned
Txn::eventCount(PathEvent event) const
{
    unsigned n = 0;
    for (const TxnStep &s : path)
        if (s.event == event)
            ++n;
    return n;
}

void
Txn::merge(const Txn &child)
{
    ready = std::max(ready, child.ready);
    dataReady = std::max(dataReady, child.dataReady);
    verifyDone = std::max(verifyDone, child.verifyDone);
    authSeq = std::max(authSeq, child.authSeq);
    macOk = macOk && child.macOk;
    gateDelayed = gateDelayed || child.gateDelayed;
    // First primary transfer wins (an access folds at most one line
    // fill per line; cross-line accesses keep the first line's wait).
    if (busGrantAt == kCycleNever) {
        busRequestAt = child.busRequestAt;
        busGrantAt = child.busGrantAt;
    }
}

} // namespace acp::mem
