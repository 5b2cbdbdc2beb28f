#include "core/security_monitor.hh"

#include <algorithm>
#include <set>

namespace acp::core
{

MarkerVerdict
judgeMarkers(const std::vector<mem::BusTxn> &txns,
             const std::vector<BusPredicate> &markers, Cycle horizon)
{
    MarkerVerdict verdict;
    std::vector<bool> seen(markers.size(), false);
    for (const mem::BusTxn &txn : txns) {
        if (txn.cycle >= horizon)
            continue;
        for (std::size_t i = 0; i < markers.size(); ++i) {
            if (!markers[i](txn))
                continue;
            if (verdict.leakCount++ == 0)
                verdict.firstLeakCycle = txn.cycle;
            seen[i] = true;
        }
    }
    verdict.leaked = std::count(seen.begin(), seen.end(), true) == 1;
    verdict.firstMarker = verdict.leaked && seen[0];
    return verdict;
}

LeakAudit
auditLeaks(const std::vector<mem::BusTxn> &txns,
           const std::optional<BadFill> &first_bad)
{
    LeakAudit audit;
    if (first_bad) {
        audit.tamperDetected = true;
        audit.firstBadReq = first_bad->req;
        audit.firstBadUsable = first_bad->usable;
        audit.firstBadVerdict = first_bad->verdict;
    }
    const Cycle usable = audit.firstBadUsable;
    const Cycle verdict = audit.firstBadVerdict;
    const bool window = usable != kCycleNever && verdict != kCycleNever &&
                        usable < verdict;

    // Request-cycle order is not record order when components queue
    // ahead: scan a copy sorted by cycle.
    std::vector<mem::BusTxn> sorted = txns;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const mem::BusTxn &a, const mem::BusTxn &b) {
                         return a.cycle < b.cycle;
                     });
    audit.busTxnsScanned = sorted.size();

    std::set<Addr> seen; // line addresses exposed before the window
    for (const mem::BusTxn &txn : sorted) {
        if (txn.kind != mem::BusTxnKind::kInstrFetch &&
            txn.kind != mem::BusTxnKind::kDataFetch)
            continue;
        ++audit.demandFetches;
        if (verdict != kCycleNever && txn.cycle >= verdict)
            ++audit.exposuresAfterVerdict;
        if (!window)
            continue;
        const Addr line = txn.addr & ~Addr(kExtLineBytes - 1);
        // Inside [usable, verdict): a line address the adversary has
        // never seen before is information derived from the tampered
        // (unverified) data — the Table 2 leak.
        if (txn.cycle < usable)
            seen.insert(line);
        else if (txn.cycle < verdict && seen.insert(line).second)
            ++audit.novelExposuresInGap;
    }
    audit.leakWindowOpen = audit.novelExposuresInGap > 0;
    return audit;
}

LeakReport
SecurityMonitor::scan(const BusPredicate &pred, Cycle before_cycle) const
{
    const MarkerVerdict v = judgeMarkers(trace_.txns(), {pred}, before_cycle);
    return {v.leaked, v.firstLeakCycle, v.leakCount};
}

BusPredicate
SecurityMonitor::addressEquals(Addr value)
{
    Addr line = value & ~Addr(63);
    return [line](const mem::BusTxn &txn) {
        if (txn.kind != mem::BusTxnKind::kDataFetch &&
            txn.kind != mem::BusTxnKind::kInstrFetch)
            return false;
        return (txn.addr & ~Addr(63)) == line;
    };
}

BusPredicate
SecurityMonitor::ioOutEquals(std::uint64_t value)
{
    return [value](const mem::BusTxn &txn) {
        return txn.kind == mem::BusTxnKind::kIoOut && txn.addr == value;
    };
}

} // namespace acp::core
