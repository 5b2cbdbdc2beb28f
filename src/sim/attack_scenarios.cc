#include "sim/attack_scenarios.hh"

#include <vector>

#include "common/logging.hh"
#include "sim/system.hh"
#include "workloads/victims.hh"

namespace acp::sim
{

namespace
{

/** Scenario cycle budget (plenty: exploits trigger within ~5k). */
constexpr std::uint64_t kMaxCycles = 100000;

/** One ciphertext XOR: the low @c bytes bytes of @c mask, little-endian,
 *  at @c addr (8 for a data word, 4 for a code word). */
struct Edit
{
    Addr addr = 0;
    std::uint64_t mask = 0;
    unsigned bytes = 0;
};

/**
 * An exploit as data: the victim program, the adversary's ciphertext
 * edits in the order it applies them, and the bus markers it watches
 * for (a binary-search probe's "greater" marker first), judged by
 * core::judgeMarkers().
 */
struct Staged
{
    Exploit exploit;
    isa::Program prog;
    std::vector<Edit> edits;
    std::vector<core::BusPredicate> markers;
};

/** What the run showed: the Table-2 cell, and which marker showed
 *  (a probe's first marker alone means secret > pivot). */
struct Judged
{
    ScenarioResult result;
    bool firstMarker = false;
};

Staged
stageProbe(std::uint64_t secret, std::uint64_t pivot)
{
    workloads::BinarySearchVictim victim =
        workloads::buildBinarySearchVictim(secret);
    // Known plaintext 0: XOR with the pivot sets the constant.
    return {Exploit::kBinarySearch,
            std::move(victim.prog),
            {{victim.constAddr, pivot, 8}},
            {core::SecurityMonitor::addressEquals(victim.markerGreater),
             core::SecurityMonitor::addressEquals(victim.markerNotGreater)}};
}

Staged
stage(Exploit exploit, std::uint64_t seed)
{
    switch (exploit) {
      case Exploit::kPointerConversion: {
        workloads::PointerConversionVictim victim =
            workloads::buildPointerConversionVictim(seed);
        // Figure 1: convert the encrypted NULL into a pointer at the
        // secret with a single ciphertext XOR (CTR malleability). The
        // traversal dereferences the secret: its value (+node offset)
        // appears as a fetch address.
        return {exploit,
                std::move(victim.prog),
                {{victim.nullPtrAddr, victim.secretAddr, 8}},
                {core::SecurityMonitor::addressEquals(victim.secretValue +
                                                      8)}};
      }
      case Exploit::kBinarySearch:
        return stageProbe(0xb000 + (seed & 0xfff), 0x8000);
      case Exploit::kDisclosingKernel:
      case Exploit::kIoDisclosure: {
        const bool io = exploit == Exploit::kIoDisclosure;
        workloads::DisclosingKernelVictim victim =
            workloads::buildDisclosingKernelVictim(seed);
        // Replace the predictable epilogue with the kernel: each code
        // word's ciphertext takes kernel ^ known plaintext.
        std::vector<std::uint32_t> kernel =
            io ? workloads::ioKernelWords(victim.secretAddr, 7)
               : workloads::disclosingKernelWords(victim.secretAddr,
                                                  victim.pageBase);
        if (kernel.size() > victim.epiloguePlain.size())
            acp_fatal("replacement kernel larger than the predictable "
                      "window");
        Staged staged{exploit, std::move(victim.prog), {}, {}};
        for (std::size_t i = 0; i < kernel.size(); ++i)
            staged.edits.push_back({victim.epilogueAddr + 4 * i,
                                    victim.epiloguePlain[i] ^ kernel[i], 4});
        staged.markers.push_back(
            io ? core::SecurityMonitor::ioOutEquals(victim.secretValue)
               : core::SecurityMonitor::addressEquals(
                     victim.pageBase | ((victim.secretValue & 0xff) << 6)));
        return staged;
      }
    }
    acp_panic("bad exploit");
}

/**
 * Build a fresh system under @p policy, apply the edits, run the
 * window and judge it from the bus trace alone: the markers in one
 * pass up to the exception, and the leak audit against the
 * controller's first bad fill. The run is not profiled.
 */
Judged
runStaged(Staged staged, core::AuthPolicy policy)
{
    SimConfig cfg = paperConfig();
    cfg.policy = policy;
    System system(cfg, staged.prog);
    staged.prog = {}; // the System keeps no reference: free it now
    secmem::SecureMemCtrl &ctrl = system.hier().ctrl();
    ctrl.busTrace().enable(true);

    secmem::ExternalMemory &ext = ctrl.externalMemory();
    for (const Edit &edit : staged.edits) {
        std::uint8_t mask[8];
        for (unsigned i = 0; i < edit.bytes; ++i)
            mask[i] = std::uint8_t(edit.mask >> (8 * i));
        ext.tamper(edit.addr, mask, edit.bytes);
    }

    system.measureTimed(~0ULL >> 1, kMaxCycles);

    const cpu::OooCore &core = system.core();
    Judged judged;
    ScenarioResult &result = judged.result;
    result.policy = policy;
    result.exploit = staged.exploit;
    result.exceptionRaised = core.securityException();
    result.precise = core.exceptionPrecise();
    result.exceptionCycle = core.exceptionCycle();
    result.taintedCommits = core.taintedCommits();
    result.taintedStoreDrains = core.taintedStoreDrains();
    result.cyclesRun = core.cycles();

    const std::vector<mem::BusTxn> &txns = ctrl.busTrace().txns();
    const core::MarkerVerdict verdict = core::judgeMarkers(
        txns, staged.markers,
        result.exceptionRaised ? result.exceptionCycle : kCycleNever);
    result.leaked = verdict.leaked;
    result.firstLeakCycle = verdict.firstLeakCycle;
    result.leakCount = verdict.leakCount;
    judged.firstMarker = verdict.firstMarker;
    result.audit = core::auditLeaks(txns, ctrl.firstBadFill());
    return judged;
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
    return runStaged(stage(exploit, seed), policy).result;
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
        Judged probe = runStaged(stageProbe(secret, pivot), policy);
        ++recovery.trials;
        if (!probe.result.leaked)
            return recovery; // the policy blocked the side channel
        if (probe.firstMarker)
            lo = pivot + 1; // secret > pivot
        else
            hi = pivot;
    }
    recovery.recovered = lo;
    recovery.success = (lo == secret);
    return recovery;
}

} // namespace acp::sim
