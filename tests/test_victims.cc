/**
 * @file
 * Victim-program tests: structure invariants the attacks rely on
 * (line-aligned tamper targets, predictable epilogue plaintext) and
 * benign execution — an untampered victim must run forever without
 * authentication failures under every policy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/system.hh"
#include "workloads/victims.hh"

using namespace acp;
using namespace acp::workloads;

namespace
{

sim::SimConfig
cfg(core::AuthPolicy policy)
{
    sim::SimConfig out;
    out.policy = policy;
    out.memoryBytes = 64ULL << 20;
    out.protectedBytes = out.memoryBytes;
    return out;
}

} // namespace

TEST(Victims, PointerConversionLayout)
{
    PointerConversionVictim victim = buildPointerConversionVictim(1);
    // The NULL pointer sits at the start of its own external line so a
    // single-line tamper suffices.
    EXPECT_EQ(victim.nullPtrAddr % 64, 0u);
    // The secret is a plausible in-range pointer.
    EXPECT_LT(victim.secretValue, 64ULL << 20);
    EXPECT_NE(victim.secretValue, 0u);
    // Seeds vary the secret.
    EXPECT_NE(buildPointerConversionVictim(2).secretValue,
              victim.secretValue);
}

TEST(Victims, PointerConversionRunsBenignUnderEveryPolicy)
{
    for (core::AuthPolicy policy :
         {core::AuthPolicy::kAuthThenIssue,
          core::AuthPolicy::kAuthThenCommit,
          core::AuthPolicy::kCommitPlusFetch,
          core::AuthPolicy::kCommitPlusObfuscation}) {
        PointerConversionVictim victim = buildPointerConversionVictim(1);
        sim::System system(cfg(policy), victim.prog);
        system.enableCosim();
        sim::RunResult res = system.measureTimed(5000, 10'000'000);
        EXPECT_EQ(res.reason, cpu::StopReason::kInstLimit)
            << core::policyName(policy);
        EXPECT_FALSE(system.core().securityException());
    }
}

TEST(Victims, BinarySearchComparesCorrectly)
{
    // With the untampered constant (0), the victim must always take
    // the "greater" path for a positive secret.
    BinarySearchVictim victim = buildBinarySearchVictim(0x1234);
    sim::System system(cfg(core::AuthPolicy::kAuthThenCommit),
                       victim.prog);
    system.hier().ctrl().busTrace().enable(true);
    system.enableCosim();
    system.measureTimed(2000, 5'000'000);

    const std::vector<mem::BusTxn> &txns =
        system.hier().ctrl().busTrace().txns();
    bool greater_seen =
        std::any_of(txns.begin(), txns.end(), [&](const mem::BusTxn &txn) {
            return (txn.addr & ~Addr(63)) ==
                   (victim.markerGreater & ~Addr(63));
        });
    bool not_greater_seen =
        std::any_of(txns.begin(), txns.end(), [&](const mem::BusTxn &txn) {
            return (txn.addr & ~Addr(63)) ==
                   (victim.markerNotGreater & ~Addr(63));
        });
    EXPECT_TRUE(greater_seen);
    EXPECT_FALSE(not_greater_seen);
}

TEST(Victims, EpilogueIsLineAlignedAndPredictable)
{
    DisclosingKernelVictim victim = buildDisclosingKernelVictim(1);
    EXPECT_EQ(victim.epilogueAddr % 64, 0u);
    ASSERT_EQ(victim.epiloguePlain.size(), 8u);
    // The epilogue plaintext must match the assembled program.
    std::size_t word_index = (victim.epilogueAddr - victim.prog.codeBase)
                             / 4;
    for (std::size_t i = 0; i < victim.epiloguePlain.size(); ++i)
        EXPECT_EQ(victim.prog.code[word_index + i],
                  victim.epiloguePlain[i]);
}

TEST(Victims, DisclosingKernelWordsDecode)
{
    auto words = disclosingKernelWords(0x00300000, 0x00500000);
    ASSERT_EQ(words.size(), 8u);
    // First two words materialize the secret address.
    EXPECT_EQ(isa::decode(words[0]).op, isa::Op::kLui);
    EXPECT_EQ(isa::decode(words[1]).op, isa::Op::kOri);
    // Then load, mask, shift, page-or, disclose.
    EXPECT_EQ(isa::decode(words[2]).op, isa::Op::kLd);
    EXPECT_EQ(isa::decode(words[3]).op, isa::Op::kAndi);
    EXPECT_EQ(isa::decode(words[4]).op, isa::Op::kSlli);
    EXPECT_EQ(isa::decode(words[7]).op, isa::Op::kLd);
    // The kernel must fit the predictable window.
    EXPECT_LE(words.size(),
              buildDisclosingKernelVictim(1).epiloguePlain.size());
}

TEST(Victims, IoKernelWordsDecode)
{
    auto words = ioKernelWords(0x00300000, 7);
    ASSERT_EQ(words.size(), 4u);
    EXPECT_EQ(isa::decode(words[3]).op, isa::Op::kOut);
    EXPECT_EQ(isa::decode(words[3]).imm, 7);
}

TEST(Victims, DisclosingVictimRunsBenign)
{
    DisclosingKernelVictim victim = buildDisclosingKernelVictim(3);
    sim::System system(cfg(core::AuthPolicy::kAuthThenIssue),
                       victim.prog);
    system.enableCosim();
    sim::RunResult res = system.measureTimed(5000, 10'000'000);
    EXPECT_EQ(res.reason, cpu::StopReason::kInstLimit);
    EXPECT_FALSE(system.core().securityException());
}
