/**
 * @file
 * Memory hierarchy integration tests: functional data movement through
 * L1/L2/external memory, program loading, timed access latencies, the
 * issue-gate effect on fill usability, and cache inclusion.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "cpu/flat_mem.hh"
#include "isa/program.hh"
#include "secmem/mem_hierarchy.hh"
#include "sim/config.hh"

using namespace acp;
using namespace acp::secmem;

namespace
{

sim::SimConfig
smallCfg(core::AuthPolicy policy = core::AuthPolicy::kAuthThenCommit)
{
    sim::SimConfig cfg;
    cfg.policy = policy;
    cfg.memoryBytes = 1 << 24; // 16 MB keeps tests quick
    cfg.protectedBytes = cfg.memoryBytes;
    return cfg;
}

} // namespace

TEST(MemHierarchy, FuncWriteReadRoundTrip)
{
    sim::SimConfig cfg = smallCfg();
    MemHierarchy hier(cfg);

    hier.writeWarm(0x1000, 8, 0x1122334455667788ULL);
    EXPECT_EQ(hier.readWarm(0x1000, 8), 0x1122334455667788ULL);
    EXPECT_EQ(hier.readWarm(0x1004, 4), 0x11223344ULL);
    EXPECT_EQ(hier.readWarm(0x1000, 1), 0x88ULL);
}

TEST(MemHierarchy, FuncReadSurvivesCacheEviction)
{
    sim::SimConfig cfg = smallCfg();
    cfg.l2.sizeBytes = 4096; // tiny L2 to force evictions
    cfg.l2.assoc = 2;
    cfg.l1d.sizeBytes = 1024;
    MemHierarchy hier(cfg);

    Rng rng(3);
    std::vector<std::pair<Addr, std::uint64_t>> writes;
    for (int i = 0; i < 500; ++i) {
        Addr addr = (rng.below(1 << 20)) & ~Addr(7);
        std::uint64_t val = rng.next();
        hier.writeWarm(addr, 8, val);
        writes.emplace_back(addr, val);
    }
    // Later writes may overwrite earlier ones; verify via replay map.
    std::unordered_map<Addr, std::uint64_t> expect;
    for (auto &[addr, val] : writes)
        expect[addr] = val;
    // Overlapping 8-byte windows can partially overwrite; only check
    // addresses whose full window was last written by themselves.
    for (auto &[addr, val] : expect) {
        bool clobbered = false;
        for (auto &[other, v2] : expect)
            if (other != addr && other < addr + 8 && addr < other + 8)
                clobbered = true;
        if (!clobbered) {
            EXPECT_EQ(hier.readWarm(addr, 8), val)
                << "addr 0x" << std::hex << addr;
        }
    }
}

TEST(MemHierarchy, LoadProgramVisibleToFetch)
{
    sim::SimConfig cfg = smallCfg();
    MemHierarchy hier(cfg);

    isa::ProgramBuilder pb(0x1000, "t");
    pb.addi(5, 0, 42);
    pb.halt();
    pb.addData64(0x8000, 0xdeadbeefcafef00dULL);
    isa::Program prog = pb.finish();
    hier.loadProgram(prog);

    EXPECT_EQ(hier.fetchWarm(0x1000), prog.code[0]);
    EXPECT_EQ(hier.fetchWarm(0x1004), prog.code[1]);
    EXPECT_EQ(hier.readWarm(0x8000, 8), 0xdeadbeefcafef00dULL);
}

TEST(MemHierarchy, TimedReadLatencies)
{
    sim::SimConfig cfg = smallCfg();
    MemHierarchy hier(cfg);

    std::uint64_t value;
    // Cold read: TLB miss + L1 miss + L2 miss + DRAM + decrypt.
    mem::Txn cold = hier.readTimed(0x2000, 8, 0, kNoAuthSeq, value);
    EXPECT_GT(cold.ready, Cycle(cfg.decryptLatency));
    EXPECT_NE(cold.authSeq, kNoAuthSeq);

    // Hot read: L1 hit at the hit latency.
    Cycle t = cold.ready + 1000;
    mem::Txn hot = hier.readTimed(0x2000, 8, t, kNoAuthSeq, value);
    EXPECT_EQ(hot.ready, t + cfg.l1d.hitLatency);

    // L2 hit: evicted... instead read the other half of the L2 line
    // (different L1 line, same L2 line).
    mem::Txn l2hit = hier.readTimed(0x2020, 8, t, kNoAuthSeq, value);
    EXPECT_GE(l2hit.ready, t + cfg.l2.hitLatency);
    EXPECT_LT(l2hit.ready, t + 60); // far faster than DRAM
}

TEST(MemHierarchy, OnlyControllerTransactionsBuildTimelines)
{
    sim::SimConfig cfg = smallCfg();
    MemHierarchy hier(cfg);
    hier.ctrl().keepRetired();

    // A cold read reaches the controller: its fill retires with a
    // timeline, while the access hands back only the folded outcome.
    std::uint64_t value;
    mem::Txn cold = hier.readTimed(0x2000, 8, 0, kNoAuthSeq, value);
    ASSERT_EQ(hier.ctrl().retired().size(), 1u);
    EXPECT_FALSE(hier.ctrl().retired()[0].path.empty());
    EXPECT_TRUE(cold.path.empty());
    EXPECT_EQ(cold.dataReady, hier.ctrl().retired()[0].dataReady);

    // A hot L1 read never leaves the chip: no timeline storage at all.
    const std::uint64_t allocs = mem::txnArenaStats().allocs;
    mem::Txn hot =
        hier.readTimed(0x2000, 8, cold.ready + 1000, kNoAuthSeq, value);
    EXPECT_EQ(mem::txnArenaStats().allocs, allocs);
    EXPECT_TRUE(hot.path.empty());
    EXPECT_EQ(hier.ctrl().retired().size(), 1u);
}

TEST(MemHierarchy, IssueGateDelaysUsability)
{
    std::uint64_t value;

    sim::SimConfig commit_cfg = smallCfg(core::AuthPolicy::kAuthThenCommit);
    MemHierarchy commit_hier(commit_cfg);
    mem::Txn commit_access =
        commit_hier.readTimed(0x4000, 8, 0, kNoAuthSeq, value);

    sim::SimConfig issue_cfg = smallCfg(core::AuthPolicy::kAuthThenIssue);
    MemHierarchy issue_hier(issue_cfg);
    mem::Txn issue_access =
        issue_hier.readTimed(0x4000, 8, 0, kNoAuthSeq, value);

    // Under authen-then-issue the data is not usable until verified:
    // strictly later than the decrypt-ready time seen under commit.
    EXPECT_GT(issue_access.ready, commit_access.ready);
    EXPECT_GE(issue_access.ready,
              commit_access.ready + commit_cfg.authLatency);
}

TEST(MemHierarchy, BaselineHasNoAuthSeq)
{
    sim::SimConfig cfg = smallCfg(core::AuthPolicy::kBaseline);
    MemHierarchy hier(cfg);
    std::uint64_t value;
    mem::Txn access = hier.readTimed(0x4000, 8, 0, kNoAuthSeq, value);
    EXPECT_EQ(access.authSeq, kNoAuthSeq);
}

TEST(MemHierarchy, WriteTimedMakesDataVisible)
{
    sim::SimConfig cfg = smallCfg();
    MemHierarchy hier(cfg);
    hier.writeTimed(0x3000, 4, 0xabcd1234, 0, kNoAuthSeq);
    std::uint64_t value;
    hier.readTimed(0x3000, 4, 100, kNoAuthSeq, value);
    EXPECT_EQ(value, 0xabcd1234u);
    EXPECT_EQ(hier.readWarm(0x3000, 4), 0xabcd1234u);
}

TEST(MemHierarchy, CrossLineAccess)
{
    sim::SimConfig cfg = smallCfg();
    MemHierarchy hier(cfg);
    // Write an 8-byte value straddling an L1-line boundary (offset 28
    // of a 32-byte line) and an L2-line boundary (offset 60 of 64).
    hier.writeWarm(0x101c, 8, 0x1111222233334444ULL);
    EXPECT_EQ(hier.readWarm(0x101c, 8), 0x1111222233334444ULL);
    hier.writeWarm(0x203c, 8, 0x5555666677778888ULL);
    EXPECT_EQ(hier.readWarm(0x203c, 8), 0x5555666677778888ULL);

    std::uint64_t value;
    hier.readTimed(0x203c, 8, 0, kNoAuthSeq, value);
    EXPECT_EQ(value, 0x5555666677778888ULL);
}

// Warm and timed reads and writes of every width at random (mostly
// unaligned, often line-crossing) addresses, through caches small
// enough to evict and write back, must read what a flat memory reads.
TEST(MemHierarchy, AccessesMatchFlatMemory)
{
    sim::SimConfig cfg = smallCfg();
    cfg.l2.sizeBytes = 4096;
    cfg.l2.assoc = 2;
    cfg.l1d.sizeBytes = 512;
    MemHierarchy hier(cfg);
    cpu::FlatMem ref(cfg.memoryBytes);

    Rng rng(29);
    Cycle cycle = 0;
    const unsigned widths[] = {1, 4, 8};
    for (int i = 0; i < 20000; ++i) {
        Addr addr = rng.below(1 << 15);
        unsigned bytes = widths[rng.below(3)];
        bool timed = rng.chance(0.5);
        cycle += 1000;
        if (rng.chance(0.5)) {
            std::uint64_t value = rng.next();
            ref.write(addr, bytes, value);
            if (timed)
                hier.writeTimed(addr, bytes, value, cycle, kNoAuthSeq);
            else
                hier.writeWarm(addr, bytes, value);
        } else {
            std::uint64_t value = 0;
            if (timed)
                hier.readTimed(addr, bytes, cycle, kNoAuthSeq, value);
            else
                value = hier.readWarm(addr, bytes);
            ASSERT_EQ(value, ref.read(addr, bytes))
                << i << ": " << bytes << " bytes at 0x" << std::hex << addr;
        }
    }
}

TEST(MemHierarchy, TranslationFaultWraps)
{
    sim::SimConfig cfg = smallCfg();
    MemHierarchy hier(cfg);
    std::uint64_t value;
    hier.readTimed(cfg.memoryBytes + 0x1000, 8, 0, kNoAuthSeq, value);
    EXPECT_GE(hier.translationFaults(), 1u);
}

TEST(MemHierarchy, InclusionMaintainedUnderPressure)
{
    sim::SimConfig cfg = smallCfg();
    cfg.l2.sizeBytes = 8192;
    cfg.l2.assoc = 2;
    cfg.l1d.sizeBytes = 2048;
    MemHierarchy hier(cfg);

    Rng rng(17);
    // Random mixed traffic; the acp_panic inside ensureL1 would fire
    // on any inclusion violation.
    for (int i = 0; i < 3000; ++i) {
        Addr addr = rng.below(1 << 18) & ~Addr(7);
        if (rng.chance(0.5))
            hier.writeWarm(addr, 8, rng.next());
        else
            hier.readWarm(addr, 8);
    }
    SUCCEED();
}

TEST(MemHierarchy, TamperedLineDecryptsCorrupt)
{
    sim::SimConfig cfg = smallCfg();
    MemHierarchy hier(cfg);

    isa::ProgramBuilder pb(0x1000, "t");
    pb.halt();
    pb.addData64(0x8000, 0x00000000ULL); // a NULL pointer
    isa::Program prog = pb.finish();
    hier.loadProgram(prog);

    // Adversary flips ciphertext bits to convert NULL -> 0x5008
    // (pointer conversion, Figure 1 of the paper).
    std::uint64_t diff = 0x5008;
    std::uint8_t mask[8];
    for (int i = 0; i < 8; ++i)
        mask[i] = std::uint8_t(diff >> (8 * i));
    hier.ctrl().externalMemory().tamper(0x8000, mask, 8);

    std::uint64_t value;
    mem::Txn access = hier.readTimed(0x8000, 8, 0, kNoAuthSeq, value);
    // The decrypted (bogus) pointer is exactly what the attacker chose…
    EXPECT_EQ(value, 0x5008u);
    // …and the authentication engine has flagged the line.
    EXPECT_TRUE(hier.ctrl().authEngine().anyFailure(0));
    EXPECT_EQ(hier.ctrl().authEngine().firstFailedSeq(0), access.authSeq);
}

TEST(MemHierarchy, CbcModeSlowerThanCounterMode)
{
    std::uint64_t value;

    sim::SimConfig ctr_cfg = smallCfg(core::AuthPolicy::kBaseline);
    MemHierarchy ctr_hier(ctr_cfg);
    mem::Txn ctr = ctr_hier.readTimed(0x5000, 8, 0, kNoAuthSeq, value);

    sim::SimConfig cbc_cfg = smallCfg(core::AuthPolicy::kBaseline);
    cbc_cfg.encryptionMode = sim::EncryptionMode::kCbc;
    MemHierarchy cbc_hier(cbc_cfg);
    mem::Txn cbc = cbc_hier.readTimed(0x5000, 8, 0, kNoAuthSeq, value);

    // CBC cannot overlap decryption with the fetch: strictly slower.
    EXPECT_GT(cbc.ready, ctr.ready);
    EXPECT_GE(cbc.ready - ctr.ready, Cycle(cbc_cfg.decryptLatency) / 2);
}

TEST(MemHierarchy, CounterPredictionHidesCounterMiss)
{
    // Tiny counter cache: every counter lookup misses. With
    // prediction the pad still overlaps the fetch.
    std::uint64_t value;

    sim::SimConfig miss_cfg = smallCfg(core::AuthPolicy::kBaseline);
    miss_cfg.counterCache.sizeBytes = 1024;
    miss_cfg.counterPrediction = false;
    MemHierarchy nopred(miss_cfg);
    mem::Txn slow = nopred.readTimed(0x6000, 8, 0, kNoAuthSeq, value);

    sim::SimConfig pred_cfg = smallCfg(core::AuthPolicy::kBaseline);
    pred_cfg.counterCache.sizeBytes = 1024;
    pred_cfg.counterPrediction = true;
    MemHierarchy pred(pred_cfg);
    mem::Txn fast = pred.readTimed(0x6000, 8, 0, kNoAuthSeq, value);

    // Provisioned (counter 0) line: the cold predictor hits.
    EXPECT_LT(fast.ready, slow.ready);
}
