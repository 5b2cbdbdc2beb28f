/**
 * @file
 * Security monitor: the "adversary's notebook". Both Table-2 judges
 * of "did the secret leak before the authentication exception?" are
 * pure functions of what the paper's Section 3 adversary observes,
 * the front-side-bus trace (request-cycle records):
 *
 *   - judgeMarkers() checks an exploit's bus markers (the secret's
 *     fetch address, I/O-port value or path markers) before the
 *     exception cycle;
 *   - auditLeaks() needs no per-exploit marker: it counts novel
 *     demand-fetch addresses exposed while the first tampered fill
 *     was usable but unverified, given that fill's cycles as the
 *     secure memory controller latched them.
 *
 * Whether the exception was precise and whether tainted values
 * reached memory or committed state are read off the core.
 */

#ifndef ACP_CORE_SECURITY_MONITOR_HH
#define ACP_CORE_SECURITY_MONITOR_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "mem/bus_trace.hh"

namespace acp::core
{

/** A bus marker: true for a transaction that reveals the secret. */
using BusPredicate = std::function<bool(const mem::BusTxn &)>;

/** What the markers showed on one run's bus trace. */
struct MarkerVerdict
{
    /** Exactly one marker showed before the horizon. */
    bool leaked = false;
    /** Cycle of the first match of any marker before the horizon. */
    Cycle firstLeakCycle = 0;
    /** Matches before the horizon, summed over the markers. */
    std::size_t leakCount = 0;
    /** The one marker that showed is the first (a binary-search
     *  probe's "secret > pivot"). */
    bool firstMarker = false;
};

/**
 * Judge a bus trace: only transactions before @p horizon (the
 * exception cycle, or kCycleNever when none fired) count. The
 * adversary learns the secret when exactly one marker shows: an
 * exploit's single leak predicate, or one of a probe's two path
 * markers, where both or neither says nothing about the branch.
 */
MarkerVerdict judgeMarkers(const std::vector<mem::BusTxn> &txns,
                           const std::vector<BusPredicate> &markers,
                           Cycle horizon);

/** The first fill whose MAC failed, as the controller retired it. A
 *  fill the fetch gate squashed was never usable: both its usable
 *  and verdict cycles are kCycleNever. */
struct BadFill
{
    Cycle req = kCycleNever;     // request cycle
    Cycle usable = kCycleNever;  // plaintext on-chip (Txn::dataReady)
    Cycle verdict = kCycleNever; // verification verdict (Txn::verifyDone)
};

/**
 * Leak audit: the adversary-visible request-cycle addresses against
 * the first bad fill. The exposure window is [firstBadUsable,
 * firstBadVerdict): tampered plaintext is on-chip and usable but its
 * verification verdict is still pending — any *novel* demand-fetch
 * line address first exposed inside that window is information the
 * adversary extracts before the exception can fire (the Table 2
 * "leak before exception" column).
 */
struct LeakAudit
{
    std::uint64_t busTxnsScanned = 0;
    std::uint64_t demandFetches = 0; // instr + data fetches observed
    /** A fill failed its MAC (tampering happened). */
    bool tamperDetected = false;
    Cycle firstBadReq = kCycleNever;     // its request cycle
    Cycle firstBadUsable = kCycleNever;  // its plaintext on-chip
    Cycle firstBadVerdict = kCycleNever; // its verification verdict
    /** Demand-fetch line addresses first exposed inside the window. */
    std::uint64_t novelExposuresInGap = 0;
    /** Demand fetches at/after the failing verdict (should be ~0
     *  when the exception squashes the machine). */
    std::uint64_t exposuresAfterVerdict = 0;
    /** The machine-checked classification: secret-derived addresses
     *  escaped while unverified tampered data was usable. */
    bool leakWindowOpen = false;

    bool operator==(const LeakAudit &) const = default;
};

/**
 * Audit @p txns (a bus trace, in any order: scanned by cycle, equal
 * cycles in record order) against @p first_bad (none: untampered).
 * Under verdict-first policies (authen-then-issue) the window is
 * empty and nothing is novel.
 */
LeakAudit auditLeaks(const std::vector<mem::BusTxn> &txns,
                     const std::optional<BadFill> &first_bad);

/** Outcome of scanning a bus trace for one marker. */
struct LeakReport
{
    bool leaked = false;
    Cycle firstLeakCycle = 0;
    std::size_t matchCount = 0;
};

/** One-marker scans of a trace, and the marker constructors. */
class SecurityMonitor
{
  public:
    explicit SecurityMonitor(const mem::BusTrace &trace) : trace_(trace) {}

    /**
     * Scan for transactions satisfying @p pred strictly before
     * @p before_cycle (use the exception cycle; kCycleNever when no
     * exception fired): judgeMarkers() with one marker.
     */
    LeakReport scan(const BusPredicate &pred, Cycle before_cycle) const;

    /** Leak predicate for plain pointer disclosure: address == value. */
    static BusPredicate addressEquals(Addr value);

    /** Leak predicate for an I/O-port disclosure of the secret. */
    static BusPredicate ioOutEquals(std::uint64_t value);

  private:
    const mem::BusTrace &trace_;
};

} // namespace acp::core

#endif // ACP_CORE_SECURITY_MONITOR_HH
