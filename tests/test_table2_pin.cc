/**
 * @file
 * Pins every Table-2 cell: each staged exploit under each control
 * point, and a full 16-bit binary-search recovery per control point,
 * compared field by field against a recorded table. The verdict tests
 * in test_attacks.cc check the paper's claims; this table guards the
 * cycles and counts behind them, so a change to how exploits are
 * staged or judged cannot move a number unnoticed.
 *
 * To re-record after a deliberate model change, replace kRecorded's
 * rows with one empty string, run this test, paste the printed table
 * back and say why in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/attack_scenarios.hh"

using namespace acp;
using namespace acp::sim;
using core::AuthPolicy;

namespace
{

constexpr AuthPolicy kPolicies[] = {
    AuthPolicy::kBaseline,        AuthPolicy::kAuthThenIssue,
    AuthPolicy::kAuthThenWrite,   AuthPolicy::kAuthThenCommit,
    AuthPolicy::kAuthThenFetch,   AuthPolicy::kCommitPlusFetch,
    AuthPolicy::kCommitPlusObfuscation,
};

constexpr Exploit kExploits[] = {
    Exploit::kPointerConversion, Exploit::kBinarySearch,
    Exploit::kDisclosingKernel,  Exploit::kIoDisclosure,
};

/** The secret every recovery hunts for (16 bits, so 16 probes). */
constexpr std::uint64_t kSecret = 0xb5e3;

std::string
line(const ScenarioResult &r)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s %s leaked=%d first=%" PRIu64 " count=%zu exc=%d precise=%d "
        "exc_cycle=%" PRIu64 " tainted_commits=%" PRIu64
        " tainted_drains=%" PRIu64 " cycles=%" PRIu64
        " audit_window=%d audit_novel=%" PRIu64 " audit_scanned=%" PRIu64,
        exploitName(r.exploit), core::policyName(r.policy), int(r.leaked),
        std::uint64_t(r.firstLeakCycle), r.leakCount,
        int(r.exceptionRaised), int(r.precise),
        std::uint64_t(r.exceptionCycle), r.taintedCommits,
        r.taintedStoreDrains, std::uint64_t(r.cyclesRun),
        int(r.audit.leakWindowOpen), r.audit.novelExposuresInGap,
        r.audit.busTxnsScanned);
    return buf;
}

std::string
line(AuthPolicy policy, const BinarySearchRecovery &r)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "recovery %s recovered=0x%" PRIx64 " trials=%u success=%d",
                  core::policyName(policy), r.recovered, r.trials,
                  int(r.success));
    return buf;
}

const char *const kRecorded[] = {
    "pointer-conversion baseline leaked=1 first=1967 count=1 exc=0 precise=0 exc_cycle=0 tainted_commits=0 tainted_drains=0 cycles=100000 audit_window=0 audit_novel=0 audit_scanned=15",
    "pointer-conversion authen-then-issue leaked=0 first=0 count=0 exc=1 precise=1 exc_cycle=2659 tainted_commits=0 tainted_drains=0 cycles=2659 audit_window=0 audit_novel=0 audit_scanned=11",
    "pointer-conversion authen-then-write leaked=1 first=1959 count=1 exc=1 precise=0 exc_cycle=2059 tainted_commits=10 tainted_drains=0 cycles=2059 audit_window=1 audit_novel=1 audit_scanned=13",
    "pointer-conversion authen-then-commit leaked=1 first=1959 count=1 exc=1 precise=1 exc_cycle=2059 tainted_commits=0 tainted_drains=0 cycles=2059 audit_window=1 audit_novel=1 audit_scanned=13",
    "pointer-conversion authen-then-fetch leaked=0 first=0 count=0 exc=1 precise=0 exc_cycle=2565 tainted_commits=10 tainted_drains=2 cycles=2565 audit_window=0 audit_novel=0 audit_scanned=11",
    "pointer-conversion commit+fetch leaked=0 first=0 count=0 exc=1 precise=1 exc_cycle=2417 tainted_commits=0 tainted_drains=0 cycles=2417 audit_window=0 audit_novel=0 audit_scanned=11",
    "pointer-conversion commit+obfuscation leaked=0 first=0 count=0 exc=1 precise=1 exc_cycle=2460 tainted_commits=0 tainted_drains=0 cycles=2460 audit_window=0 audit_novel=0 audit_scanned=18",
    "binary-search baseline leaked=1 first=973 count=1 exc=0 precise=0 exc_cycle=0 tainted_commits=0 tainted_drains=0 cycles=100000 audit_window=0 audit_novel=0 audit_scanned=8",
    "binary-search authen-then-issue leaked=0 first=0 count=0 exc=1 precise=1 exc_cycle=1230 tainted_commits=0 tainted_drains=0 cycles=1230 audit_window=0 audit_novel=0 audit_scanned=6",
    "binary-search authen-then-write leaked=1 first=973 count=1 exc=1 precise=0 exc_cycle=1082 tainted_commits=4 tainted_drains=0 cycles=1082 audit_window=1 audit_novel=1 audit_scanned=8",
    "binary-search authen-then-commit leaked=1 first=973 count=1 exc=1 precise=1 exc_cycle=1082 tainted_commits=0 tainted_drains=0 cycles=1082 audit_window=1 audit_novel=1 audit_scanned=8",
    "binary-search authen-then-fetch leaked=0 first=0 count=0 exc=1 precise=0 exc_cycle=1191 tainted_commits=4 tainted_drains=0 cycles=1191 audit_window=0 audit_novel=0 audit_scanned=6",
    "binary-search commit+fetch leaked=0 first=0 count=0 exc=1 precise=1 exc_cycle=1191 tainted_commits=0 tainted_drains=0 cycles=1191 audit_window=0 audit_novel=0 audit_scanned=6",
    "binary-search commit+obfuscation leaked=0 first=0 count=0 exc=1 precise=1 exc_cycle=1582 tainted_commits=0 tainted_drains=0 cycles=1582 audit_window=0 audit_novel=0 audit_scanned=12",
    "disclosing-kernel baseline leaked=1 first=809 count=1 exc=0 precise=0 exc_cycle=0 tainted_commits=0 tainted_drains=0 cycles=100000 audit_window=0 audit_novel=0 audit_scanned=7",
    "disclosing-kernel authen-then-issue leaked=0 first=0 count=0 exc=1 precise=1 exc_cycle=1060 tainted_commits=0 tainted_drains=0 cycles=1060 audit_window=0 audit_novel=0 audit_scanned=5",
    "disclosing-kernel authen-then-write leaked=1 first=809 count=1 exc=1 precise=0 exc_cycle=912 tainted_commits=7 tainted_drains=0 cycles=912 audit_window=1 audit_novel=1 audit_scanned=7",
    "disclosing-kernel authen-then-commit leaked=1 first=809 count=1 exc=1 precise=1 exc_cycle=912 tainted_commits=0 tainted_drains=0 cycles=912 audit_window=1 audit_novel=1 audit_scanned=7",
    "disclosing-kernel authen-then-fetch leaked=0 first=0 count=0 exc=1 precise=0 exc_cycle=1021 tainted_commits=7 tainted_drains=0 cycles=1021 audit_window=0 audit_novel=0 audit_scanned=5",
    "disclosing-kernel commit+fetch leaked=0 first=0 count=0 exc=1 precise=1 exc_cycle=1021 tainted_commits=0 tainted_drains=0 cycles=1021 audit_window=0 audit_novel=0 audit_scanned=5",
    "disclosing-kernel commit+obfuscation leaked=0 first=0 count=0 exc=1 precise=1 exc_cycle=1257 tainted_commits=0 tainted_drains=0 cycles=1257 audit_window=0 audit_novel=0 audit_scanned=10",
    "io-disclosure baseline leaked=1 first=771 count=16538 exc=0 precise=0 exc_cycle=0 tainted_commits=0 tainted_drains=0 cycles=100000 audit_window=0 audit_novel=0 audit_scanned=16543",
    "io-disclosure authen-then-issue leaked=0 first=0 count=0 exc=1 precise=1 exc_cycle=1060 tainted_commits=0 tainted_drains=0 cycles=1060 audit_window=0 audit_novel=0 audit_scanned=5",
    "io-disclosure authen-then-write leaked=0 first=0 count=0 exc=1 precise=0 exc_cycle=912 tainted_commits=209 tainted_drains=0 cycles=912 audit_window=0 audit_novel=0 audit_scanned=5",
    "io-disclosure authen-then-commit leaked=0 first=0 count=0 exc=1 precise=1 exc_cycle=912 tainted_commits=0 tainted_drains=0 cycles=912 audit_window=0 audit_novel=0 audit_scanned=5",
    "io-disclosure authen-then-fetch leaked=1 first=880 count=23 exc=1 precise=0 exc_cycle=1021 tainted_commits=209 tainted_drains=23 cycles=1021 audit_window=0 audit_novel=0 audit_scanned=28",
    "io-disclosure commit+fetch leaked=0 first=0 count=0 exc=1 precise=1 exc_cycle=1021 tainted_commits=0 tainted_drains=0 cycles=1021 audit_window=0 audit_novel=0 audit_scanned=5",
    "io-disclosure commit+obfuscation leaked=0 first=0 count=0 exc=1 precise=1 exc_cycle=1257 tainted_commits=0 tainted_drains=0 cycles=1257 audit_window=0 audit_novel=0 audit_scanned=7",
    "recovery baseline recovered=0xb5e3 trials=16 success=1",
    "recovery authen-then-issue recovered=0x0 trials=1 success=0",
    "recovery authen-then-write recovered=0xb5e3 trials=16 success=1",
    "recovery authen-then-commit recovered=0xb5e3 trials=16 success=1",
    "recovery authen-then-fetch recovered=0x0 trials=1 success=0",
    "recovery commit+fetch recovered=0x0 trials=1 success=0",
    "recovery commit+obfuscation recovered=0x0 trials=1 success=0",
};

} // namespace

TEST(Table2Pin, EveryCellMatchesTheRecording)
{
    std::vector<std::string> actual;
    for (Exploit exploit : kExploits)
        for (AuthPolicy policy : kPolicies)
            actual.push_back(line(runExploit(exploit, policy, 1)));
    for (AuthPolicy policy : kPolicies) {
        actual.push_back(
            line(policy, recoverSecretViaBinarySearch(policy, kSecret, 16)));
    }

    const std::size_t recorded = std::size(kRecorded);
    EXPECT_EQ(actual.size(), recorded);
    bool same = actual.size() == recorded;
    for (std::size_t i = 0; i < actual.size() && i < recorded; ++i) {
        EXPECT_EQ(actual[i], kRecorded[i]);
        same = same && actual[i] == kRecorded[i];
    }
    if (!same) {
        std::printf("actual table:\n");
        for (const std::string &text : actual)
            std::printf("    \"%s\",\n", text.c_str());
    }
}
