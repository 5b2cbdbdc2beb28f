#include "mem/txn.hh"

#include <algorithm>
#include <atomic>
#include <new>

namespace acp::mem
{

// ----- timeline allocator ------------------------------------------------

namespace
{

// One count for the whole process (see TxnArenaStats).
std::atomic<std::uint64_t> timelineAllocs{0};

} // namespace

void *
detail::allocateTimeline(std::size_t bytes)
{
    timelineAllocs.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(bytes);
}

TxnArenaStats
txnArenaStats()
{
    return {timelineAllocs.load(std::memory_order_relaxed)};
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
