/**
 * @file
 * Memory hierarchy integration tests: functional data movement through
 * L1/L2/external memory, program loading, timed access latencies, the
 * issue-gate effect on fill usability, and cache inclusion.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/auth_policy.hh"
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
    Access cold = hier.readTimed(0x2000, 8, 0, kNoAuthSeq, value);
    EXPECT_GT(cold.ready, Cycle(kDecryptLatency));
    EXPECT_NE(cold.authSeq, kNoAuthSeq);

    // Hot read: L1 hit at the hit latency.
    Cycle t = cold.ready + 1000;
    Access hot = hier.readTimed(0x2000, 8, t, kNoAuthSeq, value);
    EXPECT_EQ(hot.ready, t + cfg.l1d.hitLatency);

    // L2 hit: evicted... instead read the other half of the L2 line
    // (different L1 line, same L2 line).
    Access l2hit = hier.readTimed(0x2020, 8, t, kNoAuthSeq, value);
    EXPECT_GE(l2hit.ready, t + cfg.l2.hitLatency);
    EXPECT_LT(l2hit.ready, t + 60); // far faster than DRAM
}

/** Whether @p T carries a timeline. */
template <typename T>
concept HasTimeline = requires(const T &t) { t.path; };

TEST(MemHierarchy, OnlyControllerTransactionsBuildTimelines)
{
    // The core's view of an access has no timeline to build.
    static_assert(HasTimeline<mem::Txn> && !HasTimeline<Access>);

    sim::SimConfig cfg = smallCfg();
    MemHierarchy hier(cfg);
    hier.ctrl().keepRetired();

    // A cold read reaches the controller: its fill retires with a
    // timeline, while the access hands back only the outcome.
    std::uint64_t value;
    Access cold = hier.readTimed(0x2000, 8, 0, kNoAuthSeq, value);
    ASSERT_EQ(hier.ctrl().retired().size(), 1u);
    EXPECT_FALSE(hier.ctrl().retired()[0].path.empty());
    EXPECT_EQ(cold.dataReady, hier.ctrl().retired()[0].dataReady);

    // A hot L1 read never leaves the chip: no timeline storage at all.
    const std::uint64_t allocs = mem::txnArenaStats().allocs;
    hier.readTimed(0x2000, 8, cold.ready + 1000, kNoAuthSeq, value);
    EXPECT_EQ(mem::txnArenaStats().allocs, allocs);
    EXPECT_EQ(hier.ctrl().retired().size(), 1u);
}

TEST(MemHierarchy, IssueGateDelaysUsability)
{
    std::uint64_t value;

    sim::SimConfig commit_cfg = smallCfg(core::AuthPolicy::kAuthThenCommit);
    MemHierarchy commit_hier(commit_cfg);
    Access commit_access =
        commit_hier.readTimed(0x4000, 8, 0, kNoAuthSeq, value);

    sim::SimConfig issue_cfg = smallCfg(core::AuthPolicy::kAuthThenIssue);
    MemHierarchy issue_hier(issue_cfg);
    Access issue_access =
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
    Access access = hier.readTimed(0x4000, 8, 0, kNoAuthSeq, value);
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
    Access access = hier.readTimed(0x8000, 8, 0, kNoAuthSeq, value);
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
    Access ctr = ctr_hier.readTimed(0x5000, 8, 0, kNoAuthSeq, value);

    sim::SimConfig cbc_cfg = smallCfg(core::AuthPolicy::kBaseline);
    cbc_cfg.encryptionMode = sim::EncryptionMode::kCbc;
    MemHierarchy cbc_hier(cbc_cfg);
    Access cbc = cbc_hier.readTimed(0x5000, 8, 0, kNoAuthSeq, value);

    // CBC cannot overlap decryption with the fetch: strictly slower.
    EXPECT_GT(cbc.ready, ctr.ready);
    EXPECT_GE(cbc.ready - ctr.ready, Cycle(kDecryptLatency) / 2);
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
    Access slow = nopred.readTimed(0x6000, 8, 0, kNoAuthSeq, value);

    sim::SimConfig pred_cfg = smallCfg(core::AuthPolicy::kBaseline);
    pred_cfg.counterCache.sizeBytes = 1024;
    pred_cfg.counterPrediction = true;
    MemHierarchy pred(pred_cfg);
    Access fast = pred.readTimed(0x6000, 8, 0, kNoAuthSeq, value);

    // Provisioned (counter 0) line: the cold predictor hits.
    EXPECT_LT(fast.ready, slow.ready);
}

namespace
{

/** The six fields of a timed access the core reads, under a label. */
struct Outcome
{
    std::string label;
    Cycle ready;
    Cycle dataReady;
    AuthSeq authSeq;
    bool gateDelayed;
    Cycle busRequestAt;
    Cycle busGrantAt;

    bool operator==(const Outcome &) const = default;
};

/** One row as it would be written in kRecordedOutcomes. */
std::string
outcomeRow(const Outcome &o)
{
    auto cycle = [](Cycle c) {
        return c == kCycleNever ? std::string("kCycleNever")
                                : std::to_string(c);
    };
    return "{\"" + o.label + "\", " + cycle(o.ready) + ", " +
           cycle(o.dataReady) + ", " + std::to_string(o.authSeq) + ", " +
           (o.gateDelayed ? "true" : "false") + ", " +
           cycle(o.busRequestAt) + ", " + cycle(o.busGrantAt) + "},";
}

/** Recorded by running AccessOutcomesMatchTheParent's body against
 *  the hierarchy that folded a fill's controller transaction into the
 *  access and an L2 hit's line at the L2 lookup: the one fold of each
 *  L1 line at its L1 lookup must reproduce both. */
const Outcome kRecordedOutcomes[] = {
    {"cold baseline", 255, 255, 0, false, 170, 210},
    {"cold authen-then-issue", 403, 255, 1, false, 170, 210},
    {"cold authen-then-write", 255, 255, 1, false, 170, 210},
    {"cold authen-then-commit", 255, 255, 1, false, 170, 210},
    {"cold authen-then-fetch", 255, 255, 1, false, 170, 210},
    {"cold commit+fetch", 255, 255, 1, false, 170, 210},
    {"cold commit+obfuscation", 465, 465, 1, false, 345, 420},
    {"fill", 413, 265, 1, false, 180, 220},
    {"early L1 hit", 413, 265, 1, false, kCycleNever, kCycleNever},
    {"early L2 hit", 413, 265, 1, false, kCycleNever, kCycleNever},
    {"L1 hit", 1414, 1414, 1, false, kCycleNever, kCycleNever},
    {"cross L1", 1791, 1643, 2, false, 1593, 1598},
    {"cross L2", 3921, 3773, 4, false, 3583, 3588},
    {"store miss", 5781, 5633, 5, false, 5583, 5588},
    {"L2 hit", 6418, 6418, 5, false, kCycleNever, kCycleNever},
    {"first of two", 7781, 7633, 6, false, 7583, 7588},
    {"second of two", 7921, 7773, 7, false, 7583, 7728},
    {"older line", 9816, 9668, 8, false, 9618, 9623},
    {"newer line", 11821, 11673, 9, false, 11518, 11628},
    {"cross into older", 11821, 11673, 9, false, kCycleNever, kCycleNever},
    {"gating load", 255, 255, 1, false, 170, 210},
    {"gated fetch", 588, 588, 2, true, 538, 543},
    {"fetch hit", 689, 689, 2, false, kCycleNever, kCycleNever},
    {"tampered load", 255, 255, 1, false, 170, 210},
    {"squashed fetch", kCycleNever, kCycleNever, 0, false, kCycleNever,
     kCycleNever},
    {"client 0", 255, 255, 1, false, 170, 210},
    {"client 1", 465, 465, 2, false, 385, 420},
};

} // namespace

// A fixed list of timed accesses, each of whose six outcome fields the
// core reads (the load's readyAt and stall causes, the fetch stall and
// its cause, the bus_wait window), must reproduce the recording: every
// way a line's timing reaches an access is covered once.
TEST(MemHierarchy, AccessOutcomesMatchTheParent)
{
    std::vector<Outcome> got;
    auto keep = [&got](const std::string &label, const auto &a) {
        got.push_back({label, a.ready, a.dataReady, a.authSeq,
                       a.gateDelayed, a.busRequestAt, a.busGrantAt});
    };
    std::uint64_t value = 0;

    // A cold 8-byte read under each policy.
    for (core::AuthPolicy policy :
         {core::AuthPolicy::kBaseline, core::AuthPolicy::kAuthThenIssue,
          core::AuthPolicy::kAuthThenWrite,
          core::AuthPolicy::kAuthThenCommit,
          core::AuthPolicy::kAuthThenFetch,
          core::AuthPolicy::kCommitPlusFetch,
          core::AuthPolicy::kCommitPlusObfuscation}) {
        sim::SimConfig cfg = smallCfg(policy);
        MemHierarchy hier(cfg);
        keep(std::string("cold ") + core::policyName(policy),
             hier.readTimed(0x2000, 8, 0, kNoAuthSeq, value, 7));
    }

    {
        // One authen-then-issue hierarchy, so each line's usable cycle
        // (the verdict) differs from its data cycle.
        sim::SimConfig cfg = smallCfg(core::AuthPolicy::kAuthThenIssue);
        MemHierarchy hier(cfg);
        auto cold = hier.readTimed(0x2000, 8, 10, kNoAuthSeq, value);
        keep("fill", cold);
        // Before the fill is usable, an L1 hit and an L1 miss that hits
        // the other half of its L2 line both wait for it.
        keep("early L1 hit",
             hier.readTimed(0x2008, 8, 40, kNoAuthSeq, value));
        keep("early L2 hit",
             hier.readTimed(0x2020, 8, 40, kNoAuthSeq, value));
        const Cycle t = cold.ready + 1000;
        keep("L1 hit", hier.readTimed(0x2000, 8, t, kNoAuthSeq, value));
        // Crossing an L1 line inside one L2 line: one fill, then an L2
        // hit; crossing an L2 line: two fills, the first bus window
        // wins.
        keep("cross L1",
             hier.readTimed(0x301c, 8, t + 10, kNoAuthSeq, value));
        keep("cross L2",
             hier.readTimed(0x403c, 8, t + 2000, kNoAuthSeq, value));
        // A store that misses allocates its line through a fill; once
        // that is usable, the other half of its L2 line is an L2 hit.
        keep("store miss",
             hier.writeTimed(0x5000, 8, 0x1234, t + 4000, kNoAuthSeq));
        keep("L2 hit",
             hier.readTimed(0x5020, 8, t + 5000, kNoAuthSeq, value));
        // Two cold reads in one cycle: the second grant waits for the
        // first transfer.
        keep("first of two",
             hier.readTimed(0x6000, 8, t + 6000, kNoAuthSeq, value));
        auto second = hier.readTimed(0x7000, 8, t + 6000, kNoAuthSeq, value);
        EXPECT_GT(second.busGrantAt, second.busRequestAt);
        keep("second of two", second);
        // Crossing from a line whose fill is pending into an older,
        // usable line: the pending line's cycles and tag win.
        keep("older line",
             hier.readTimed(0x8000, 8, t + 8000, kNoAuthSeq, value));
        keep("newer line",
             hier.readTimed(0x7fc0, 8, t + 10000, kNoAuthSeq, value));
        keep("cross into older",
             hier.readTimed(0x7ffc, 8, t + 10010, kNoAuthSeq, value));
    }

    {
        // Under authen-then-fetch, a cold fetch gated on a tag whose
        // verdict is still pending waits for it before the bus grant.
        sim::SimConfig cfg = smallCfg(core::AuthPolicy::kAuthThenFetch);
        MemHierarchy hier(cfg);
        auto load = hier.readTimed(0x2000, 8, 0, kNoAuthSeq, value);
        keep("gating load", load);
        std::uint32_t word = 0;
        const std::uint8_t *line = nullptr;
        auto fetch =
            hier.fetchTimed(0x1000, load.dataReady, load.authSeq, word, line);
        EXPECT_TRUE(fetch.gateDelayed);
        keep("gated fetch", fetch);
        keep("fetch hit", hier.fetchTimed(0x1004, fetch.ready + 100,
                                          load.authSeq, word, line));
    }

    {
        // A fetch gated on a tag that covers a tampered line's failed
        // request is squashed: never usable, never on the bus.
        sim::SimConfig cfg = smallCfg(core::AuthPolicy::kCommitPlusFetch);
        MemHierarchy hier(cfg);
        isa::ProgramBuilder pb(0x1000, "t");
        pb.halt();
        pb.addData64(0x8000, 0);
        hier.loadProgram(pb.finish());
        const std::uint8_t mask[8] = {0x08, 0x50};
        hier.ctrl().externalMemory().tamper(0x8000, mask, 8);
        auto bad = hier.readTimed(0x8000, 8, 0, kNoAuthSeq, value);
        keep("tampered load", bad);
        std::uint32_t word = 0;
        const std::uint8_t *line = nullptr;
        auto fetch = hier.fetchTimed(0x1000, bad.dataReady + 500,
                                     bad.authSeq, word, line);
        EXPECT_EQ(fetch.ready, kCycleNever);
        keep("squashed fetch", fetch);
    }

    {
        // Client 1 of two: its own slice, its own private stack.
        sim::SimConfig cfg = smallCfg();
        cfg.numCores = 2;
        MemHierarchy hier(cfg);
        keep("client 0", hier.readTimed(0x2000, 8, 0, kNoAuthSeq, value));
        keep("client 1",
             hier.readTimed(0x2000, 8, 0, kNoAuthSeq, value, 3, 1));
    }

    std::string actual;
    for (const Outcome &o : got)
        actual += "    " + outcomeRow(o) + "\n";
    ASSERT_EQ(got.size(), std::size(kRecordedOutcomes)) << actual;
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(got[i] == kRecordedOutcomes[i])
            << "got      " << outcomeRow(got[i]) << "\nrecorded "
            << outcomeRow(kRecordedOutcomes[i]);
}
