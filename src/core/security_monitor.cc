#include "core/security_monitor.hh"

namespace acp::core
{

LeakReport
SecurityMonitor::scan(const std::function<bool(const mem::BusTxn &)> &pred,
                      Cycle before_cycle) const
{
    LeakReport report;
    for (const mem::BusTxn &txn : trace_.txns()) {
        if (txn.cycle >= before_cycle)
            continue;
        if (!pred(txn))
            continue;
        if (!report.leaked) {
            report.leaked = true;
            report.firstLeakCycle = txn.cycle;
        }
        ++report.matchCount;
    }
    return report;
}

std::function<bool(const mem::BusTxn &)>
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

std::function<bool(const mem::BusTxn &)>
SecurityMonitor::ioOutEquals(std::uint64_t value)
{
    return [value](const mem::BusTxn &txn) {
        return txn.kind == mem::BusTxnKind::kIoOut && txn.addr == value;
    };
}

} // namespace acp::core
