/**
 * @file
 * End-to-end attack scenario runner: stages each of the paper's
 * memory-fetch side-channel exploits (Section 3.2) against a live
 * simulated system under a chosen authentication control point, and
 * reports what the adversary observed — the empirical basis for the
 * paper's Table 2. Every exploit is data (the victim program, its
 * ciphertext XOR edits and the bus markers that reveal the secret)
 * run and judged by one function.
 */

#ifndef ACP_SIM_ATTACK_SCENARIOS_HH
#define ACP_SIM_ATTACK_SCENARIOS_HH

#include <cstdint>

#include "common/types.hh"
#include "core/auth_policy.hh"
#include "obs/path_profiler.hh"

namespace acp::sim
{

/** The staged exploits. */
enum class Exploit
{
    /** Linked-list NULL -> pointer conversion (Figure 1). */
    kPointerConversion,
    /** One probe of the comparison-constant attack (Figure 2). */
    kBinarySearch,
    /** Code-substitution disclosing kernel (Figure 4). */
    kDisclosingKernel,
    /** Disclosing kernel variant leaking through an I/O port. */
    kIoDisclosure,
};

/** Name for reports. */
const char *exploitName(Exploit exploit);

/** What happened when the exploit ran. */
struct ScenarioResult
{
    core::AuthPolicy policy;
    Exploit exploit;
    /** Secret-derived information observed on the bus/IO channel
     *  before the exception (or at all, when none fired). */
    bool leaked = false;
    Cycle firstLeakCycle = 0;
    std::size_t leakCount = 0;
    /** Authentication exception outcome. */
    bool exceptionRaised = false;
    bool precise = false;
    Cycle exceptionCycle = 0;
    /** Tainted architectural effects (Table 2 state columns). */
    std::uint64_t taintedCommits = 0;
    std::uint64_t taintedStoreDrains = 0;
    Cycle cyclesRun = 0;
    /**
     * Path-profiler leak audit of the same run: the machine-checked
     * generalisation of @ref leaked (no per-exploit predicate — any
     * novel demand-fetch address first exposed while unverified
     * tampered data was usable counts).
     */
    obs::LeakAudit audit;
};

/** Stage @p exploit under @p policy on a fresh system. */
ScenarioResult runExploit(Exploit exploit, core::AuthPolicy policy,
                          std::uint64_t seed = 1);

/** Full adaptive binary-search recovery of a planted secret. */
struct BinarySearchRecovery
{
    std::uint64_t secret = 0;
    std::uint64_t recovered = 0;
    unsigned trials = 0;
    bool success = false;
};

/**
 * Run the adaptive attack: one fresh system per probe, tampering the
 * comparison constant to the current pivot and reading the branch
 * direction off the bus trace. @p bits of the secret are recovered
 * (log2 trials, exactly as the paper's Section 3.2.2 analysis).
 */
BinarySearchRecovery recoverSecretViaBinarySearch(core::AuthPolicy policy,
                                                  std::uint64_t secret,
                                                  unsigned bits);

} // namespace acp::sim

#endif // ACP_SIM_ATTACK_SCENARIOS_HH
