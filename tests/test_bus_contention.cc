/**
 * @file
 * Shared bus/bank resource model tests: concurrent fills serialize on
 * the front-side bus, metadata traffic (counter lines) competes with
 * data transfers for bus slots, and the controller's transaction
 * timelines are monotone and deterministic across identical runs.
 * The controller builds a timeline only while something reads its
 * retired transactions, so each test that reads one keeps them.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/txn.hh"
#include "secmem/mem_hierarchy.hh"
#include "secmem/secure_memctrl.hh"
#include "sim/config.hh"

using namespace acp;
using namespace acp::secmem;

namespace
{

sim::SimConfig
smallCfg(core::AuthPolicy policy = core::AuthPolicy::kBaseline)
{
    sim::SimConfig cfg;
    cfg.policy = policy;
    cfg.memoryBytes = 1 << 24; // 16 MB keeps tests quick
    cfg.protectedBytes = cfg.memoryBytes;
    return cfg;
}

/** Bus beats of one line + MAC transfer. */
constexpr unsigned kLineBeats =
    (kLineTransferBytes + mem::kBusWidthBytes - 1) / mem::kBusWidthBytes;

/** Grant cycles of every kBusGrant step, in timeline order. */
std::vector<Cycle>
grantCycles(const mem::Txn &txn)
{
    std::vector<Cycle> grants;
    for (const mem::TxnStep &s : txn.path)
        if (s.event == mem::PathEvent::kBusGrant)
            grants.push_back(s.cycle);
    return grants;
}

} // namespace

TEST(BusContention, OverlappingFillsSerializeOnBus)
{
    sim::SimConfig cfg = smallCfg();
    SecureMemCtrl ctrl(cfg, 1);
    ctrl.keepRetired();

    // Two lines in different DRAM banks (banks interleave per row):
    // bank activation overlaps, data transfers must share the bus.
    Addr a = 0x0;
    Addr b = Addr(mem::kDramRowBytes);

    // Pre-warm the counter cache so each fetch is exactly one transfer.
    ctrl.fetchLine(a, 0, kNoAuthSeq, mem::BusTxnKind::kDataFetch, true);
    ctrl.fetchLine(b, 0, kNoAuthSeq, mem::BusTxnKind::kDataFetch, true);

    mem::Txn first = ctrl.fetchLine(a, 0, kNoAuthSeq,
                                    mem::BusTxnKind::kDataFetch);
    mem::Txn second = ctrl.fetchLine(b, 0, kNoAuthSeq,
                                     mem::BusTxnKind::kDataFetch);

    ASSERT_EQ(first.eventCount(mem::PathEvent::kBusGrant), 1u);
    ASSERT_EQ(second.eventCount(mem::PathEvent::kBusGrant), 1u);

    Cycle transfer = Cycle(kLineBeats) * mem::kBusClockRatio;
    EXPECT_GE(second.eventCycle(mem::PathEvent::kBusGrant),
              first.eventCycle(mem::PathEvent::kBusGrant) + transfer);
    EXPECT_GE(ctrl.busArbiter().contendedGrants(), 1u);
}

TEST(BusContention, CounterMissDelaysDataBusGrant)
{
    // Cold fetch: the counter-cache miss puts an extra 64-byte line on
    // the bus ahead of the data transfer.
    sim::SimConfig cfg = smallCfg();
    SecureMemCtrl cold(cfg, 1);
    cold.keepRetired();
    mem::Txn miss = cold.fetchLine(0x4000, 0, kNoAuthSeq,
                                   mem::BusTxnKind::kDataFetch);

    std::vector<Cycle> grants = grantCycles(miss);
    ASSERT_EQ(grants.size(), 2u) << "counter line + data line";
    Cycle counter_beats = Cycle(kExtLineBytes / mem::kBusWidthBytes) *
                          mem::kBusClockRatio;
    EXPECT_GE(grants[1], grants[0] + counter_beats);
    EXPECT_EQ(miss.eventCount(mem::PathEvent::kCounterReady), 1u);

    // Control: identical fetch with the counter pre-warmed grants the
    // data transfer earlier and touches the bus only once.
    SecureMemCtrl warm(cfg, 1);
    warm.keepRetired();
    warm.fetchLine(0x4000, 0, kNoAuthSeq, mem::BusTxnKind::kDataFetch,
                   true);
    mem::Txn hit = warm.fetchLine(0x4000, 0, kNoAuthSeq,
                                  mem::BusTxnKind::kDataFetch);
    std::vector<Cycle> hit_grants = grantCycles(hit);
    ASSERT_EQ(hit_grants.size(), 1u);
    EXPECT_LT(hit_grants[0], grants[1]);
    EXPECT_LE(hit.dataReady, miss.dataReady);
}

TEST(BusContention, TimelinesMonotoneAndDeterministic)
{
    // Hierarchy accesses in nondecreasing request order; the timelines
    // live on the controller transactions the fills retire.
    auto run = [] {
        sim::SimConfig cfg = smallCfg(core::AuthPolicy::kAuthThenCommit);
        MemHierarchy hier(cfg);
        hier.ctrl().keepRetired();
        Cycle cycle = 0;
        std::uint64_t value = 0;
        for (int i = 0; i < 32; ++i) {
            Addr addr = Addr(i) * 0x1240; // strided, line-crossing mix
            mem::Txn access =
                i % 3 == 2
                    ? hier.writeTimed(addr, 8, value, cycle, kNoAuthSeq)
                    : hier.readTimed(addr, 8, cycle, kNoAuthSeq, value);
            EXPECT_TRUE(access.path.empty()) << "access " << i;
            cycle = access.dataReady;
        }
        return hier.ctrl().retired();
    };

    std::vector<mem::Txn> a = run();
    std::vector<mem::Txn> b = run();
    ASSERT_GE(a.size(), 32u) << "every access misses to the controller";
    ASSERT_EQ(a.size(), b.size());

    for (std::size_t i = 0; i < a.size(); ++i) {
        // Every controller timeline opens with its request and is
        // monotone by construction, even with late-noted events.
        ASSERT_GE(a[i].path.size(), 2u) << "txn " << i;
        EXPECT_EQ(a[i].path.front().event, mem::PathEvent::kRequest);
        EXPECT_EQ(a[i].path.front().cycle, a[i].reqCycle);
        for (std::size_t s = 1; s < a[i].path.size(); ++s)
            EXPECT_GE(a[i].path[s].cycle, a[i].path[s - 1].cycle)
                << "txn " << i << " step " << s;
        // Bit-identical across runs.
        EXPECT_EQ(a[i].id, b[i].id);
        ASSERT_EQ(a[i].path.size(), b[i].path.size()) << "txn " << i;
        for (std::size_t s = 0; s < a[i].path.size(); ++s)
            EXPECT_TRUE(a[i].path[s] == b[i].path[s])
                << "txn " << i << " step " << s;
        EXPECT_EQ(a[i].ready, b[i].ready);
        EXPECT_EQ(a[i].authSeq, b[i].authSeq);
    }
}
