/**
 * @file
 * Out-of-order core tests: architectural correctness via commit-time
 * co-simulation against the functional reference, pipeline behaviour
 * (ILP, branch recovery, store forwarding), and policy gating basics.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "isa/program.hh"
#include "sim/system.hh"

using namespace acp;
using namespace acp::isa;
using namespace acp::cpu;

namespace
{

sim::SimConfig
testCfg(core::AuthPolicy policy = core::AuthPolicy::kBaseline)
{
    sim::SimConfig cfg;
    cfg.policy = policy;
    cfg.memoryBytes = 1 << 24;
    cfg.protectedBytes = cfg.memoryBytes;
    return cfg;
}

/** Run a program to completion with co-simulation on. */
sim::RunResult
runToHalt(const Program &prog,
          core::AuthPolicy policy = core::AuthPolicy::kBaseline,
          std::uint64_t max_cycles = 2'000'000)
{
    sim::System system(testCfg(policy), prog);
    system.enableCosim();
    return system.measureTimed(~0ULL >> 1, max_cycles);
}

Program
sumLoop(std::uint64_t n)
{
    ProgramBuilder pb(0x1000, "sum");
    Label loop = pb.newLabel(), done = pb.newLabel();
    pb.li(5, std::int64_t(n));
    pb.li(6, 0);
    pb.bind(loop);
    pb.beq(5, 0, done);
    pb.add(6, 6, 5);
    pb.addi(5, 5, -1);
    pb.j(loop);
    pb.bind(done);
    pb.halt();
    return pb.finish();
}

} // namespace

TEST(OooCore, SumLoopCommitsCorrectly)
{
    Program prog = sumLoop(100);
    sim::System system(testCfg(), prog);
    system.enableCosim();
    sim::RunResult res = system.measureTimed(~0ULL >> 1, 1'000'000);
    EXPECT_EQ(res.reason, StopReason::kHalted);
    EXPECT_EQ(system.core().reg(6), 5050u);
    EXPECT_GT(res.insts, 300u); // 100 iterations x 4 instructions
}

TEST(OooCore, IndependentOpsExploitWidth)
{
    // A warm loop of independent adds should sustain IPC well above 1.
    ProgramBuilder pb(0x1000, "ilp");
    Label loop = pb.newLabel(), done = pb.newLabel();
    pb.li(15, 500);
    pb.bind(loop);
    pb.beq(15, 0, done);
    for (int rep = 0; rep < 4; ++rep)
        for (unsigned r = 1; r <= 8; ++r)
            pb.addi(r, r, 1);
    pb.addi(15, 15, -1);
    pb.j(loop);
    pb.bind(done);
    pb.halt();

    sim::RunResult res = runToHalt(pb.finish());
    EXPECT_EQ(res.reason, StopReason::kHalted);
    double ipc = double(res.insts) / double(res.cycles);
    EXPECT_GT(ipc, 2.0);
}

TEST(OooCore, DependentChainSerializes)
{
    ProgramBuilder pb(0x1000, "chain");
    Label loop = pb.newLabel(), done = pb.newLabel();
    pb.li(1, 0);
    pb.li(15, 200);
    pb.bind(loop);
    pb.beq(15, 0, done);
    for (int i = 0; i < 32; ++i)
        pb.addi(1, 1, 1); // serial dependence
    pb.addi(15, 15, -1);
    pb.j(loop);
    pb.bind(done);
    pb.halt();

    sim::RunResult res = runToHalt(pb.finish());
    EXPECT_EQ(res.reason, StopReason::kHalted);
    double ipc = double(res.insts) / double(res.cycles);
    // A 1-cycle dependent chain cannot exceed IPC 1 by much, and the
    // pipeline should get close to 1 once warm.
    EXPECT_LT(ipc, 1.3);
    EXPECT_GT(ipc, 0.5);
}

TEST(OooCore, StoreLoadForwarding)
{
    ProgramBuilder pb(0x1000, "fwd");
    pb.li(1, 0x8000);
    pb.li(2, 0xabcd);
    Label loop = pb.newLabel(), done = pb.newLabel();
    pb.li(5, 50);
    pb.bind(loop);
    pb.beq(5, 0, done);
    pb.sd(2, 0, 1);   // store
    pb.ld(3, 0, 1);   // immediately load the same address
    pb.add(2, 2, 3);  // use it
    pb.addi(5, 5, -1);
    pb.j(loop);
    pb.bind(done);
    pb.halt();

    sim::System system(testCfg(), pb.finish());
    system.enableCosim();
    sim::RunResult res = system.measureTimed(~0ULL >> 1, 1'000'000);
    EXPECT_EQ(res.reason, StopReason::kHalted);
    EXPECT_GT(system.core().stats().name().size(), 0u);
}

TEST(OooCore, BranchyCodeRecovers)
{
    // Data-dependent branches with a pattern the bimodal predictor
    // cannot fully learn; co-simulation catches any recovery bug.
    ProgramBuilder pb(0x1000, "branchy");
    Label loop = pb.newLabel(), odd = pb.newLabel(), next = pb.newLabel(),
          done = pb.newLabel();
    pb.li(5, 200); // counter
    pb.li(6, 0);   // acc
    pb.li(7, 0x1234567);
    pb.bind(loop);
    pb.beq(5, 0, done);
    pb.andi(8, 7, 1);
    pb.bne(8, 0, odd);
    pb.addi(6, 6, 3); // even path
    pb.j(next);
    pb.bind(odd);
    pb.addi(6, 6, 7); // odd path
    pb.bind(next);
    // xorshift-ish scramble to make the pattern irregular
    pb.srli(9, 7, 3);
    pb.xor_(7, 7, 9);
    pb.slli(9, 7, 5);
    pb.xor_(7, 7, 9);
    pb.addi(5, 5, -1);
    pb.j(loop);
    pb.bind(done);
    pb.halt();

    sim::System system(testCfg(), pb.finish());
    system.enableCosim();
    sim::RunResult res = system.measureTimed(~0ULL >> 1, 2'000'000);
    EXPECT_EQ(res.reason, StopReason::kHalted);
}

TEST(OooCore, PointerChaseMatchesReference)
{
    // Build a shuffled singly-linked ring in memory, then chase it.
    ProgramBuilder pb(0x1000, "chase");
    constexpr unsigned kNodes = 256;
    constexpr Addr kBase = 0x100000;
    Rng rng(77);
    std::vector<unsigned> perm(kNodes);
    for (unsigned i = 0; i < kNodes; ++i)
        perm[i] = i;
    for (unsigned i = kNodes - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.below(i + 1)]);
    for (unsigned i = 0; i < kNodes; ++i) {
        unsigned next = perm[(std::find(perm.begin(), perm.end(), i) -
                              perm.begin() + 1) % kNodes];
        pb.addData64(kBase + 64 * i, kBase + 64 * next);
    }

    Label loop = pb.newLabel(), done = pb.newLabel();
    pb.li(1, kBase);
    pb.li(5, 500);
    pb.li(6, 0);
    pb.bind(loop);
    pb.beq(5, 0, done);
    pb.ld(1, 0, 1);   // p = *p
    pb.add(6, 6, 1);
    pb.addi(5, 5, -1);
    pb.j(loop);
    pb.bind(done);
    pb.halt();

    sim::System system(testCfg(core::AuthPolicy::kAuthThenCommit),
                       pb.finish());
    system.enableCosim();
    sim::RunResult res = system.measureTimed(~0ULL >> 1, 5'000'000);
    EXPECT_EQ(res.reason, StopReason::kHalted);
    // Pointer chasing in a 16KB ring: plenty of L1 misses; IPC must be
    // well below peak.
    EXPECT_LT(res.ipc, 4.0);
}

TEST(OooCore, RandomProgramFuzzCosim)
{
    // Random (but halting) straight-line programs with mixed ops;
    // co-simulation verifies every committed value.
    Rng rng(31337);
    for (int trial = 0; trial < 10; ++trial) {
        ProgramBuilder pb(0x1000, "fuzz");
        pb.li(1, 0x200000); // memory base
        for (int i = 0; i < 300; ++i) {
            unsigned rd = 2 + unsigned(rng.below(12));
            unsigned rs1 = 2 + unsigned(rng.below(12));
            unsigned rs2 = 2 + unsigned(rng.below(12));
            switch (rng.below(10)) {
              case 0: pb.add(rd, rs1, rs2); break;
              case 1: pb.sub(rd, rs1, rs2); break;
              case 2: pb.xor_(rd, rs1, rs2); break;
              case 3: pb.mul(rd, rs1, rs2); break;
              case 4: pb.slli(rd, rs1, unsigned(rng.below(20))); break;
              case 5: pb.addi(rd, rs1, std::int64_t(rng.below(4096)) - 2048);
                      break;
              case 6: pb.sltu(rd, rs1, rs2); break;
              case 7: {
                  // Bounded store then load.
                  std::int64_t off = std::int64_t(rng.below(1024)) * 8;
                  pb.sd(rs1, off, 1);
                  pb.ld(rd, off, 1);
                  break;
              }
              case 8: pb.div(rd, rs1, rs2); break;
              case 9: pb.srai(rd, rs1, unsigned(rng.below(40))); break;
            }
        }
        pb.halt();
        sim::RunResult res = runToHalt(pb.finish());
        EXPECT_EQ(res.reason, StopReason::kHalted) << "trial " << trial;
    }
}

TEST(OooCore, PolicyDoesNotChangeArchitecture)
{
    // The same program must produce identical architectural results
    // under every policy (policies change timing, not semantics).
    Program prog = sumLoop(500);
    for (core::AuthPolicy policy :
         {core::AuthPolicy::kBaseline, core::AuthPolicy::kAuthThenIssue,
          core::AuthPolicy::kAuthThenWrite,
          core::AuthPolicy::kAuthThenCommit,
          core::AuthPolicy::kAuthThenFetch,
          core::AuthPolicy::kCommitPlusFetch,
          core::AuthPolicy::kCommitPlusObfuscation}) {
        sim::System system(testCfg(policy), prog);
        system.enableCosim();
        sim::RunResult res = system.measureTimed(~0ULL >> 1, 5'000'000);
        EXPECT_EQ(res.reason, StopReason::kHalted)
            << core::policyName(policy);
        EXPECT_EQ(system.core().reg(6), 125250u)
            << core::policyName(policy);
    }
}

TEST(OooCore, FastForwardThenTimedContinues)
{
    Program prog = sumLoop(1000);
    sim::System system(testCfg(), prog);
    system.enableCosim();
    std::uint64_t ffd = system.fastForward(2000);
    EXPECT_EQ(ffd, 2000u);
    sim::RunResult res = system.measureTimed(~0ULL >> 1, 5'000'000);
    EXPECT_EQ(res.reason, StopReason::kHalted);
    EXPECT_EQ(system.core().reg(6), 500500u);
}

TEST(OooCore, TaintReachesConsumerDispatchedAfterProducerCommits)
{
    // A loop of two iterations: each loads one line, runs more than
    // one RUU of independent adds, then consumes the loaded value.
    // The first iteration reads a clean line and warms the I-cache;
    // the second reads a tampered line. Its consumer cannot dispatch
    // until the load has left the RUU, so the operand comes from the
    // register file and must carry the register's taint.
    // authen-then-write gates neither issue nor commit: the program
    // halts before the failed verification's verdict is due.
    constexpr Addr kClean = 0x100000;
    constexpr Addr kTampered = 0x101000;
    constexpr unsigned kIndependent = 136; // > ruuSize (128)
    ProgramBuilder pb(0x1000, "taint");
    pb.addData64(kClean, 1);
    pb.addData64(kTampered, 2);
    Label loop = pb.newLabel();
    pb.li(2, kClean);
    pb.li(13, kTampered);
    pb.li(10, 2);
    pb.bind(loop);
    pb.ld(1, 0, 2);
    for (unsigned i = 0; i < kIndependent; ++i)
        pb.addi(3 + i % 7, 3 + i % 7, 1);
    pb.add(11, 11, 1); // the consumer
    pb.mv(2, 13);
    pb.addi(10, 10, -1);
    pb.bne(10, 0, loop);
    pb.halt();

    sim::System system(testCfg(core::AuthPolicy::kAuthThenWrite),
                       pb.finish());
    std::uint8_t flip = 0x01;
    system.hier().ctrl().externalMemory().tamper(kTampered, &flip, 1);
    sim::RunResult res = system.measureTimed(~0ULL >> 1, 1'000'000);

    EXPECT_EQ(res.reason, StopReason::kHalted);
    // The tampered load and its consumer; nothing else reads r1.
    EXPECT_EQ(system.core().taintedCommits(), 2u);
}
