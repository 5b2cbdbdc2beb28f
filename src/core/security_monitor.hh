/**
 * @file
 * Security monitor: the "adversary's notebook". It inspects the
 * front-side-bus trace and the simulated run outcome to decide,
 * empirically, the properties the paper's Table 2 tabulates for each
 * authentication control point:
 *
 *   - did a planted secret leak through fetch addresses (or an I/O
 *     port) *before* the authentication exception fired?
 *   - was the exception precise?
 *   - did any value derived from unauthenticated data reach external
 *     memory (authenticated memory state)?
 *   - did any unauthenticated instruction commit (authenticated
 *     processor state)?
 */

#ifndef ACP_CORE_SECURITY_MONITOR_HH
#define ACP_CORE_SECURITY_MONITOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "mem/bus_trace.hh"

namespace acp::core
{

/** Outcome of scanning a bus trace for a leak. */
struct LeakReport
{
    bool leaked = false;
    Cycle firstLeakCycle = 0;
    std::size_t matchCount = 0;
};

/** Trace analysis helpers. */
class SecurityMonitor
{
  public:
    explicit SecurityMonitor(const mem::BusTrace &trace) : trace_(trace) {}

    /**
     * Scan for transactions satisfying @p pred strictly before
     * @p before_cycle (use the exception cycle; kCycleNever when no
     * exception fired).
     */
    LeakReport scan(const std::function<bool(const mem::BusTxn &)> &pred,
                    Cycle before_cycle) const;

    /** Leak predicate for plain pointer disclosure: address == value. */
    static std::function<bool(const mem::BusTxn &)>
    addressEquals(Addr value);

    /** Leak predicate for an I/O-port disclosure of the secret. */
    static std::function<bool(const mem::BusTxn &)>
    ioOutEquals(std::uint64_t value);

  private:
    const mem::BusTrace &trace_;
};

} // namespace acp::core

#endif // ACP_CORE_SECURITY_MONITOR_HH
