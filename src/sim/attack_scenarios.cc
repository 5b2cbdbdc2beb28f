#include "sim/attack_scenarios.hh"

#include <memory>

#include "common/logging.hh"
#include "core/security_monitor.hh"
#include "sim/system.hh"
#include "workloads/victims.hh"

namespace acp::sim
{

namespace
{

/** Scenario cycle budget (plenty: exploits trigger within ~5k). */
constexpr std::uint64_t kMaxCycles = 100000;

SimConfig
scenarioCfg(core::AuthPolicy policy)
{
    SimConfig cfg;
    cfg.policy = policy;
    cfg.memoryBytes = 64ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    // Every scenario runs with the path profiler attached, so results
    // carry the machine-checked leak audit next to the per-exploit
    // predicate verdict (and the System enables the bus trace).
    cfg.profileEnabled = true;
    return cfg;
}

/** XOR an 8-byte little-endian mask into external ciphertext. */
void
tamper64(System &system, Addr addr, std::uint64_t xor_mask)
{
    std::uint8_t mask[8];
    for (int i = 0; i < 8; ++i)
        mask[i] = std::uint8_t(xor_mask >> (8 * i));
    system.hier().ctrl().externalMemory().tamper(addr, mask, 8);
}

/** Substitute known-plaintext code words with attacker code. */
void
tamperCode(System &system, Addr addr,
           const std::vector<std::uint32_t> &plain,
           const std::vector<std::uint32_t> &replacement)
{
    if (replacement.size() > plain.size())
        acp_fatal("replacement kernel larger than the predictable window");
    for (std::size_t i = 0; i < replacement.size(); ++i) {
        std::uint32_t diff = plain[i] ^ replacement[i];
        std::uint8_t mask[4];
        for (int b = 0; b < 4; ++b)
            mask[b] = std::uint8_t(diff >> (8 * b));
        system.hier().ctrl().externalMemory().tamper(addr + 4 * i, mask, 4);
    }
}

ScenarioResult
finish(System &system, ScenarioResult result,
       const std::function<bool(const mem::BusTxn &)> &leak_pred)
{
    cpu::OooCore &core = system.core();
    result.exceptionRaised = core.securityException();
    result.precise = core.exceptionPrecise();
    result.exceptionCycle = core.exceptionCycle();
    result.taintedCommits = core.taintedCommits();
    result.taintedStoreDrains = core.taintedStoreDrains();
    result.cyclesRun = core.cycles();

    core::SecurityMonitor monitor(system.hier().ctrl().busTrace());
    Cycle horizon = result.exceptionRaised ? result.exceptionCycle
                                           : kCycleNever;
    core::LeakReport report = monitor.scan(leak_pred, horizon);
    result.leaked = report.leaked;
    result.firstLeakCycle = report.firstLeakCycle;
    result.leakCount = report.matchCount;
    result.audit = system.pathProfile().audit;
    return result;
}

ScenarioResult
runPointerConversion(core::AuthPolicy policy, std::uint64_t seed)
{
    workloads::PointerConversionVictim victim =
        workloads::buildPointerConversionVictim(seed);
    System system(scenarioCfg(policy), victim.prog);

    // Figure 1: convert the encrypted NULL into a pointer at the
    // secret with a single ciphertext XOR (CTR malleability).
    tamper64(system, victim.nullPtrAddr, victim.secretAddr);

    system.measureTimed(~0ULL >> 1, kMaxCycles);

    ScenarioResult result;
    result.policy = policy;
    result.exploit = Exploit::kPointerConversion;
    // The traversal dereferences the secret: its value (+node offset)
    // appears as a fetch address.
    return finish(system, result,
                  core::SecurityMonitor::addressEquals(victim.secretValue +
                                                       8));
}

/** One probe with pivot @p pivot; returns (result, observedGreater). */
std::pair<ScenarioResult, bool>
binarySearchProbe(core::AuthPolicy policy, std::uint64_t secret,
                  std::uint64_t pivot)
{
    workloads::BinarySearchVictim victim =
        workloads::buildBinarySearchVictim(secret);
    System system(scenarioCfg(policy), victim.prog);

    // Known plaintext 0: XOR with the pivot sets the constant.
    tamper64(system, victim.constAddr, pivot);

    system.measureTimed(~0ULL >> 1, kMaxCycles);

    ScenarioResult result;
    result.policy = policy;
    result.exploit = Exploit::kBinarySearch;

    core::SecurityMonitor monitor(system.hier().ctrl().busTrace());
    Cycle horizon = system.core().securityException()
                        ? system.core().exceptionCycle()
                        : kCycleNever;
    bool saw_greater =
        monitor.scan(core::SecurityMonitor::addressEquals(
                         victim.markerGreater), horizon)
            .leaked;
    bool saw_not_greater =
        monitor.scan(core::SecurityMonitor::addressEquals(
                         victim.markerNotGreater), horizon)
            .leaked;

    // Leak == the adversary can tell which path ran.
    auto either = [&](const mem::BusTxn &txn) {
        return core::SecurityMonitor::addressEquals(
                   victim.markerGreater)(txn) ||
               core::SecurityMonitor::addressEquals(
                   victim.markerNotGreater)(txn);
    };
    result = finish(system, result, either);
    result.leaked = result.leaked && (saw_greater != saw_not_greater);
    return {result, saw_greater && !saw_not_greater};
}

ScenarioResult
runBinarySearch(core::AuthPolicy policy, std::uint64_t seed)
{
    std::uint64_t secret = 0xb000 + (seed & 0xfff);
    return binarySearchProbe(policy, secret, 0x8000).first;
}

ScenarioResult
runDisclosingKernel(core::AuthPolicy policy, std::uint64_t seed,
                    bool io_variant)
{
    workloads::DisclosingKernelVictim victim =
        workloads::buildDisclosingKernelVictim(seed);
    System system(scenarioCfg(policy), victim.prog);

    // Replace the predictable epilogue with the kernel (two XORs:
    // kernel ^ known plaintext applied to the ciphertext).
    std::vector<std::uint32_t> kernel =
        io_variant ? workloads::ioKernelWords(victim.secretAddr, 7)
                   : workloads::disclosingKernelWords(victim.secretAddr,
                                                      victim.pageBase);
    tamperCode(system, victim.epilogueAddr, victim.epiloguePlain, kernel);

    system.measureTimed(~0ULL >> 1, kMaxCycles);

    ScenarioResult result;
    result.policy = policy;
    result.exploit = io_variant ? Exploit::kIoDisclosure
                                : Exploit::kDisclosingKernel;

    if (io_variant) {
        return finish(system, result,
                      core::SecurityMonitor::ioOutEquals(
                          victim.secretValue));
    }
    Addr expect = victim.pageBase |
                  ((victim.secretValue & 0xff) << 6);
    return finish(system, result,
                  core::SecurityMonitor::addressEquals(expect));
}

} // namespace

const char *
exploitName(Exploit exploit)
{
    switch (exploit) {
      case Exploit::kPointerConversion: return "pointer-conversion";
      case Exploit::kBinarySearch:      return "binary-search";
      case Exploit::kDisclosingKernel:  return "disclosing-kernel";
      case Exploit::kIoDisclosure:      return "io-disclosure";
    }
    return "?";
}

ScenarioResult
runExploit(Exploit exploit, core::AuthPolicy policy, std::uint64_t seed)
{
    switch (exploit) {
      case Exploit::kPointerConversion:
        return runPointerConversion(policy, seed);
      case Exploit::kBinarySearch:
        return runBinarySearch(policy, seed);
      case Exploit::kDisclosingKernel:
        return runDisclosingKernel(policy, seed, false);
      case Exploit::kIoDisclosure:
        return runDisclosingKernel(policy, seed, true);
    }
    acp_panic("bad exploit");
}

BinarySearchRecovery
recoverSecretViaBinarySearch(core::AuthPolicy policy, std::uint64_t secret,
                             unsigned bits)
{
    BinarySearchRecovery recovery;
    recovery.secret = secret;

    std::uint64_t lo = 0;
    std::uint64_t hi = (bits >= 64) ? ~std::uint64_t(0)
                                    : (std::uint64_t(1) << bits) - 1;
    while (lo < hi) {
        std::uint64_t pivot = lo + (hi - lo) / 2;
        auto [result, greater] = binarySearchProbe(policy, secret, pivot);
        ++recovery.trials;
        if (!result.leaked)
            return recovery; // the policy blocked the side channel
        if (greater)
            lo = pivot + 1; // secret > pivot
        else
            hi = pivot;
    }
    recovery.recovered = lo;
    recovery.success = (lo == secret);
    return recovery;
}

} // namespace acp::sim
