/**
 * @file
 * Out-of-order core tests: architectural correctness via commit-time
 * co-simulation against the functional reference, pipeline behaviour
 * (ILP, branch recovery, store forwarding), and policy gating basics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

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

/** One counter of a core's stats group, by its short name. */
std::uint64_t
coreCounter(OooCore &core, const std::string &stat)
{
    struct Finder : StatVisitor
    {
        std::string want;
        std::uint64_t value = ~0ULL;
        void
        onCounter(const std::string &name, std::uint64_t v) override
        {
            if (name == want)
                value = v;
        }
    } finder;
    finder.want = core.name() + "." + stat;
    core.stats().visit(finder);
    EXPECT_NE(finder.value, ~0ULL) << "no counter " << finder.want;
    return finder.value;
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
    pb.sw(2, 12, 1);  // a word into the second half of [8, 16) ...
    pb.ld(4, 8, 1);   // ... then all of it: a partial overlap
    pb.add(2, 2, 4);
    pb.addi(5, 5, -1);
    pb.j(loop);
    pb.bind(done);
    pb.halt();

    sim::System system(testCfg(), pb.finish());
    system.enableCosim();
    sim::RunResult res = system.measureTimed(~0ULL >> 1, 1'000'000);
    EXPECT_EQ(res.reason, StopReason::kHalted);
    // The full-width pair forwards in every iteration; the partial
    // overlap never does (its load waits for the store to drain, and
    // co-simulation checks the value it then reads).
    EXPECT_EQ(coreCounter(system.core(), "load_forwards"), 50u);
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

/** RUU sizes for the parking test: 200 is not a multiple of 64, so the
 *  store-bitset walk crosses the wrap inside a partial word. */
class LoadParking : public ::testing::TestWithParam<unsigned>
{};

TEST_P(LoadParking, ParkedLoadsIssueWithTheirStoreAndSurviveSquash)
{
    // Each iteration's stores take their address from a div chain, so
    // every younger load with its address ready is refused on them and
    // parks. Three cases, all co-simulated:
    //  - S and the load L behind it: L parks on S and must issue in the
    //    tick S does (it then forwards from S);
    //  - branch B, between S and three wrong-path loads parked on S:
    //    when B mispredicts, those loads are squashed and the correct
    //    path refills their slots with adds that wait for a mul, before
    //    S issues. A parked list that kept the squashed loads would
    //    issue those adds early with operand 0, and their values would
    //    fail co-simulation. B waits on an fsqrt, so that even a
    //    16-entry RUU has drained the last iteration and holds the
    //    wrong-path loads by the time B resolves;
    //  - S2 and L2, a word store inside the doubleword L2 loads: L2
    //    parks on S2, then waits for S2 to drain, without forwarding.
    const unsigned ruu = GetParam();
    constexpr Addr kCode = 0x1000;
    constexpr Addr kData = 0x200000;
    constexpr unsigned kIters = 300;
    constexpr unsigned kWarmIters = 8; // fast-forwarded: a warm I-cache
    ProgramBuilder pb(kCode, "parking");
    Label loop = pb.newLabel(), skip = pb.newLabel(), join = pb.newLabel();
    pb.li(1, kData);
    pb.li(20, kIters);
    pb.li(21, 0xace1); // LFSR: B's direction
    pb.li(23, 1);
    pb.lid(27, 2.0);
    const Addr loop_pc = pb.here();
    pb.bind(loop);
    pb.div(4, 1, 23); // x4 = kData, known only after the chain
    pb.div(4, 4, 23);
    pb.div(4, 4, 23);
    pb.fsqrt(26, 27);
    pb.and_(7, 21, 26); // bit 0 of sqrt(2.0) is set
    pb.andi(7, 7, 1);
    const Addr s_pc = pb.here();
    pb.sd(20, 0, 4); // S
    const Addr l_pc = pb.here();
    pb.ld(8, 0, 1);  // L
    pb.beq(7, 0, skip); // B
    pb.ld(9, 64, 1);
    pb.ld(10, 128, 1);
    pb.ld(11, 192, 1);
    pb.j(join);
    pb.bind(skip); // as long as the fall-through path
    pb.mul(12, 4, 23);
    pb.addi(13, 12, 1);
    pb.addi(13, 13, 2);
    pb.addi(13, 13, 3);
    pb.bind(join);
    const Addr s2_pc = pb.here();
    pb.sw(20, 260, 4); // S2: bytes [260, 264)
    const Addr l2_pc = pb.here();
    pb.ld(14, 256, 1); // L2: bytes [256, 264)
    pb.add(15, 14, 8);
    // Galois LFSR step (taps 0xb400).
    pb.srli(16, 21, 1);
    pb.andi(17, 21, 1);
    pb.sub(17, 0, 17);
    pb.andi(17, 17, 0xb400);
    pb.xor_(21, 16, 17);
    pb.addi(20, 20, -1);
    pb.bne(20, 0, loop);
    const std::uint64_t iter_insts = (pb.here() - loop_pc) / 4 - 4;
    pb.halt();

    sim::SimConfig cfg = testCfg();
    cfg.ruuSize = ruu;
    sim::System system(cfg, pb.finish());
    system.enableCosim();
    system.fastForward((loop_pc - kCode) / 4 + kWarmIters * iter_insts);
    system.core().enableTrace();
    sim::RunResult res = system.measureTimed(~0ULL >> 1, 5'000'000);
    ASSERT_EQ(res.reason, StopReason::kHalted);

    // Issue cycle of each dynamic instruction; committed ones in order.
    std::map<std::uint64_t, Cycle> issued;
    std::vector<obs::PipelineEvent> commits;
    unsigned squashes = 0;
    for (const obs::PipelineEvent &ev : system.core().pipelineTrace()) {
        if (ev.kind == obs::PipelineEvent::Kind::kIssue)
            issued[ev.b] = ev.cycle;
        else if (ev.kind == obs::PipelineEvent::Kind::kCommit)
            commits.push_back(ev);
        else if (ev.kind == obs::PipelineEvent::Kind::kSquash && ev.b > 0)
            ++squashes;
    }
    // Pair each committed store with the next committed load it guards.
    unsigned pairs = 0, overlaps = 0;
    for (std::size_t i = 0; i < commits.size(); ++i) {
        const Addr pc = commits[i].a;
        if (pc != s_pc && pc != s2_pc)
            continue;
        const Addr load_pc = pc == s_pc ? l_pc : l2_pc;
        auto load = std::find_if(
            commits.begin() + std::ptrdiff_t(i), commits.end(),
            [load_pc](const obs::PipelineEvent &ev) {
                return ev.a == load_pc;
            });
        ASSERT_NE(load, commits.end());
        const Cycle store_issue = issued.at(commits[i].b);
        const Cycle load_issue = issued.at(load->b);
        if (pc == s_pc) {
            EXPECT_EQ(load_issue, store_issue) << "iteration " << pairs;
            ++pairs;
        } else {
            // The drain follows the store's commit in the same tick at
            // the earliest.
            EXPECT_GE(load_issue, commits[i].cycle)
                << "iteration " << overlaps;
            ++overlaps;
        }
    }
    EXPECT_EQ(pairs, kIters - kWarmIters);
    EXPECT_EQ(overlaps, kIters - kWarmIters);
    // Only each L forwards; no L2 does.
    EXPECT_EQ(coreCounter(system.core(), "load_forwards"), pairs);
    EXPECT_GT(squashes, kIters / 8);
}

INSTANTIATE_TEST_SUITE_P(Ruu, LoadParking, ::testing::Values(16u, 128u, 200u));

// ----- the fetch group's hierarchy counters -----------------------------
//
// A fetch group walks the I-TLB and the L1I for its first word only and
// counts its later words as hits. These tests pin every fetch-path
// counter of a short timed window to the values the one-walk-per-word
// fetch produced on the same programs.

namespace
{

/** The fetch path's counters of one client after a timed window. */
struct FetchCounts
{
    std::uint64_t l1iHits = 0, l1iMisses = 0;
    std::uint64_t itlbHits = 0, itlbMisses = 0;
    std::uint64_t faults = 0;
    std::uint64_t fetched = 0;

    bool operator==(const FetchCounts &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const FetchCounts &c)
{
    return os << "{" << c.l1iHits << ", " << c.l1iMisses << ", "
              << c.itlbHits << ", " << c.itlbMisses << ", " << c.faults
              << ", " << c.fetched << "}";
}

FetchCounts
fetchCounts(sim::System &system, unsigned client)
{
    secmem::MemHierarchy &hier = system.hier();
    return {hier.l1i(client).hits(),   hier.l1i(client).misses(),
            hier.itlb(client).hitCount(), hier.itlb(client).missCount(),
            hier.translationFaults(),
            coreCounter(system.core(client), "fetched")};
}

/** Cycles of every fetch-group window. */
constexpr Cycle kFetchWindow = 4000;

/** Straight-line code entered at a mid-line pc (0x1014), running
 *  across eight 32-byte lines to a halt. */
Program
midLineStraightLine()
{
    ProgramBuilder pb(0x1000, "straight");
    Label start = pb.newLabel();
    pb.j(start);
    for (int i = 0; i < 4; ++i)
        pb.nop();
    pb.bind(start);
    for (int i = 0; i < 60; ++i)
        pb.addi(1 + i % 9, 1 + i % 9, i);
    pb.halt();
    return pb.finish();
}

/** A loop entered mid-line whose predicted-taken backward branch sits
 *  mid-line too. */
Program
midLineLoop()
{
    ProgramBuilder pb(0x1000, "loop");
    Label loop = pb.newLabel();
    pb.li(5, 400);
    while (pb.here() % 32 != 12)
        pb.nop();
    pb.bind(loop);
    for (unsigned r = 1; r <= 4; ++r)
        pb.addi(r, r, 1);
    pb.xor_(6, 6, 5);
    pb.addi(5, 5, -1);
    pb.bne(5, 0, loop);
    pb.halt();
    return pb.finish();
}

/** Three passes over a chain of jumps, each to a line (and page) no
 *  word before it touched: the first pass's groups end on a miss. */
Program
coldJumpChain()
{
    ProgramBuilder pb(0x1000, "cold");
    Label again = pb.newLabel();
    pb.li(9, 3);
    pb.bind(again);
    for (int hop = 0; hop < 4; ++hop) {
        Label next = pb.newLabel();
        pb.addi(5, 5, 1);
        pb.j(next);
        for (int i = 0; i < 1030 + 3 * hop; ++i)
            pb.nop();
        pb.bind(next);
    }
    pb.addi(9, 9, -1);
    pb.bne(9, 0, again);
    pb.halt();
    return pb.finish();
}

/** Jumps to pc memoryBytes + 0x1000, which translates to the program's
 *  own first word: the code loops there, and every word it fetches
 *  faults. */
Program
faultingAlias(std::uint64_t memory_bytes)
{
    ProgramBuilder pb(0x1000, "alias");
    for (int i = 0; i < 20; ++i)
        pb.addi(1 + i % 5, 1 + i % 5, 1);
    pb.li(7, memory_bytes + 0x1000);
    pb.jalr(0, 7, 0);
    pb.halt();
    return pb.finish();
}

FetchCounts
runFetchWindow(const Program &prog)
{
    sim::System system(testCfg(), prog);
    system.measureTimed(~0ULL >> 1, kFetchWindow);
    return fetchCounts(system, 0);
}

} // namespace

TEST(FetchGroup, StraightLineEnteredMidLine)
{
    EXPECT_EQ(runFetchWindow(midLineStraightLine()),
              (FetchCounts{68, 10, 77, 1, 0, 68}));
}

TEST(FetchGroup, LoopWithMidLineBackwardBranch)
{
    EXPECT_EQ(runFetchWindow(midLineLoop()),
              (FetchCounts{2821, 3, 2823, 1, 0, 2821}));
}

TEST(FetchGroup, JumpsToColdLinesEndTheirGroupOnAMiss)
{
    EXPECT_EQ(runFetchWindow(coldJumpChain()),
              (FetchCounts{40, 6, 41, 5, 0, 40}));
}

TEST(FetchGroup, EveryWordOfAFaultingPcCountsItsFault)
{
    const FetchCounts counts =
        runFetchWindow(faultingAlias(testCfg().memoryBytes));
    EXPECT_EQ(counts, (FetchCounts{20708, 5, 20712, 1, 20685, 20708}));
}

TEST(FetchGroup, TwoCoreMixFetchesThroughEachClientsSlice)
{
    sim::SimConfig cfg = testCfg();
    cfg.numCores = 2;
    sim::System system(cfg, std::vector<Program>{midLineLoop(),
                                                  coldJumpChain()});
    system.measureTimed(~0ULL >> 1, kFetchWindow);
    EXPECT_EQ(fetchCounts(system, 0),
              (FetchCounts{2821, 3, 2823, 1, 0, 2821}));
    EXPECT_EQ(fetchCounts(system, 1), (FetchCounts{40, 6, 41, 5, 0, 40}));
}
