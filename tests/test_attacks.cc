/**
 * @file
 * End-to-end security tests: the paper's exploits staged against each
 * authentication control point. These tests ARE the empirical Table 2:
 * which policies stop the fetch-address side channel, which provide a
 * precise exception, and which keep memory / processor state
 * authenticated.
 */

#include <gtest/gtest.h>

#include "printers.hh"
#include "sim/attack_scenarios.hh"

using namespace acp;
using namespace acp::sim;
using core::AuthPolicy;

// ----------------------------------------------------- pointer conversion

TEST(PointerConversion, LeaksUnderCommit)
{
    ScenarioResult res = runExploit(Exploit::kPointerConversion,
                                    AuthPolicy::kAuthThenCommit);
    EXPECT_TRUE(res.leaked);
    EXPECT_TRUE(res.exceptionRaised);
    EXPECT_TRUE(res.precise);
    EXPECT_LT(res.firstLeakCycle, res.exceptionCycle);
    // Commit gate: no tainted instruction ever committed.
    EXPECT_EQ(res.taintedCommits, 0u);
    EXPECT_EQ(res.taintedStoreDrains, 0u);
}

TEST(PointerConversion, LeaksUnderWrite)
{
    ScenarioResult res = runExploit(Exploit::kPointerConversion,
                                    AuthPolicy::kAuthThenWrite);
    EXPECT_TRUE(res.leaked);
    EXPECT_TRUE(res.exceptionRaised);
    EXPECT_FALSE(res.precise);
    // Write gate: memory protected, processor state not.
    EXPECT_EQ(res.taintedStoreDrains, 0u);
    EXPECT_GT(res.taintedCommits, 0u);
}

TEST(PointerConversion, LeaksUnderBaseline)
{
    ScenarioResult res = runExploit(Exploit::kPointerConversion,
                                    AuthPolicy::kBaseline);
    EXPECT_TRUE(res.leaked);
    EXPECT_FALSE(res.exceptionRaised); // nothing ever verified
}

TEST(PointerConversion, BlockedUnderIssue)
{
    ScenarioResult res = runExploit(Exploit::kPointerConversion,
                                    AuthPolicy::kAuthThenIssue);
    EXPECT_FALSE(res.leaked);
    EXPECT_TRUE(res.exceptionRaised);
    EXPECT_TRUE(res.precise);
    EXPECT_EQ(res.taintedCommits, 0u);
}

TEST(PointerConversion, BlockedUnderCommitPlusFetch)
{
    ScenarioResult res = runExploit(Exploit::kPointerConversion,
                                    AuthPolicy::kCommitPlusFetch);
    EXPECT_FALSE(res.leaked);
    EXPECT_TRUE(res.exceptionRaised);
    EXPECT_TRUE(res.precise);
}

TEST(PointerConversion, ObfuscationHidesAddress)
{
    ScenarioResult res = runExploit(Exploit::kPointerConversion,
                                    AuthPolicy::kCommitPlusObfuscation);
    // The bogus fetch still happens, but the bus shows a re-mapped
    // location, so the monitor (adversary) learns nothing.
    EXPECT_FALSE(res.leaked);
    EXPECT_TRUE(res.exceptionRaised);
}

// --------------------------------------------------------- binary search

TEST(BinarySearch, ProbeLeaksUnderCommit)
{
    ScenarioResult res = runExploit(Exploit::kBinarySearch,
                                    AuthPolicy::kAuthThenCommit);
    EXPECT_TRUE(res.leaked);
    EXPECT_TRUE(res.exceptionRaised);
}

TEST(BinarySearch, ProbeBlockedUnderIssueAndFetch)
{
    for (AuthPolicy policy : {AuthPolicy::kAuthThenIssue,
                              AuthPolicy::kCommitPlusFetch}) {
        ScenarioResult res = runExploit(Exploit::kBinarySearch, policy);
        EXPECT_FALSE(res.leaked) << core::policyName(policy);
        EXPECT_TRUE(res.exceptionRaised) << core::policyName(policy);
    }
}

TEST(BinarySearch, FullRecoveryUnderWrite)
{
    // The paper's log2(N) analysis: recover a 12-bit secret in at most
    // 12 adaptive probes under a policy that does not gate fetches.
    std::uint64_t secret = 0xa53;
    BinarySearchRecovery recovery = recoverSecretViaBinarySearch(
        AuthPolicy::kAuthThenWrite, secret, 12);
    EXPECT_TRUE(recovery.success);
    EXPECT_EQ(recovery.recovered, secret);
    EXPECT_LE(recovery.trials, 12u);
}

TEST(BinarySearch, RecoveryFailsUnderIssue)
{
    BinarySearchRecovery recovery = recoverSecretViaBinarySearch(
        AuthPolicy::kAuthThenIssue, 0xa53, 12);
    EXPECT_FALSE(recovery.success);
    EXPECT_EQ(recovery.trials, 1u); // first probe already blocked
}

// ----------------------------------------------------- disclosing kernel

TEST(DisclosingKernel, LeaksWindowUnderCommit)
{
    ScenarioResult res = runExploit(Exploit::kDisclosingKernel,
                                    AuthPolicy::kAuthThenCommit);
    EXPECT_TRUE(res.leaked); // 8 bits of the secret on the bus
    EXPECT_TRUE(res.exceptionRaised);
    EXPECT_TRUE(res.precise);
    EXPECT_EQ(res.taintedCommits, 0u);
}

TEST(DisclosingKernel, BlockedUnderIssue)
{
    ScenarioResult res = runExploit(Exploit::kDisclosingKernel,
                                    AuthPolicy::kAuthThenIssue);
    EXPECT_FALSE(res.leaked);
    EXPECT_TRUE(res.exceptionRaised);
}

TEST(DisclosingKernel, BlockedUnderCommitPlusFetch)
{
    ScenarioResult res = runExploit(Exploit::kDisclosingKernel,
                                    AuthPolicy::kCommitPlusFetch);
    EXPECT_FALSE(res.leaked);
    EXPECT_TRUE(res.exceptionRaised);
}

TEST(DisclosingKernel, ObfuscationHidesWindow)
{
    ScenarioResult res = runExploit(Exploit::kDisclosingKernel,
                                    AuthPolicy::kCommitPlusObfuscation);
    EXPECT_FALSE(res.leaked);
}

// ------------------------------------------------------- I/O disclosure

TEST(IoDisclosure, LeaksUnderBaseline)
{
    ScenarioResult res = runExploit(Exploit::kIoDisclosure,
                                    AuthPolicy::kBaseline);
    EXPECT_TRUE(res.leaked);
}

TEST(IoDisclosure, CommitGateStopsIo)
{
    // Section 3.2.3: authen-then-commit suffices against I/O-channel
    // disclosure because the OUT cannot commit unverified.
    ScenarioResult res = runExploit(Exploit::kIoDisclosure,
                                    AuthPolicy::kAuthThenCommit);
    EXPECT_FALSE(res.leaked);
    EXPECT_TRUE(res.exceptionRaised);
}

TEST(IoDisclosure, WriteGateStopsIo)
{
    // The OUT is parked in the store-release buffer until its tag
    // verifies, which never happens.
    ScenarioResult res = runExploit(Exploit::kIoDisclosure,
                                    AuthPolicy::kAuthThenWrite);
    EXPECT_FALSE(res.leaked);
}

TEST(IoDisclosure, FetchGateAloneDoesNotCoverIo)
{
    // Fetch gating controls bus addresses, not output channels: the
    // paper pairs it with authen-then-commit for exactly this reason.
    ScenarioResult res = runExploit(Exploit::kIoDisclosure,
                                    AuthPolicy::kAuthThenFetch);
    EXPECT_TRUE(res.leaked);
}

// --------------------------------------------------- cross-cutting sweep

/** Parameterized Table-2 sweep: fetch side channel per policy. */
struct SweepCase
{
    AuthPolicy policy;
    bool expectLeak;
};

void
PrintTo(const SweepCase &test_case, std::ostream *os)
{
    core::PrintTo(test_case.policy, os);
    *os << (test_case.expectLeak ? ", leaks" : ", no leak");
}

class FetchChannelSweep : public ::testing::TestWithParam<SweepCase>
{};

TEST_P(FetchChannelSweep, PointerConversionMatrix)
{
    const SweepCase &test_case = GetParam();
    ScenarioResult res = runExploit(Exploit::kPointerConversion,
                                    test_case.policy);
    EXPECT_EQ(res.leaked, test_case.expectLeak)
        << core::policyName(test_case.policy);
}

INSTANTIATE_TEST_SUITE_P(
    Table2, FetchChannelSweep,
    ::testing::Values(
        SweepCase{AuthPolicy::kBaseline, true},
        SweepCase{AuthPolicy::kAuthThenIssue, false},
        SweepCase{AuthPolicy::kAuthThenWrite, true},
        SweepCase{AuthPolicy::kAuthThenCommit, true},
        SweepCase{AuthPolicy::kAuthThenFetch, false},
        SweepCase{AuthPolicy::kCommitPlusFetch, false},
        SweepCase{AuthPolicy::kCommitPlusObfuscation, false}),
    [](const auto &info) {
        std::string name = core::policyName(info.param.policy);
        for (char &ch : name)
            if (ch == '-' || ch == '+')
                ch = '_';
        return name;
    });
