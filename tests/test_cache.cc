/**
 * @file
 * Generic cache tests: hit/miss behaviour, LRU replacement, dirty
 * eviction, invalidation, and parameterized geometry sweeps.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "cache/tlb.hh"

using namespace acp;
using namespace acp::cache;

namespace
{

sim::CacheConfig
smallCfg(unsigned assoc)
{
    sim::CacheConfig cfg;
    cfg.sizeBytes = 1024;
    cfg.assoc = assoc;
    cfg.lineBytes = 64;
    cfg.hitLatency = 2;
    return cfg;
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache cache("t", smallCfg(2));
    EXPECT_EQ(cache.lookup(0x100), nullptr);
    EXPECT_EQ(cache.misses(), 1u);

    Eviction ev;
    CacheLine *line = cache.allocate(0x100, ev);
    EXPECT_FALSE(ev.valid);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->data.size(), 64u);

    EXPECT_NE(cache.lookup(0x100), nullptr);
    EXPECT_EQ(cache.hits(), 1u);
    // Same line, different offset.
    EXPECT_NE(cache.lookup(0x13f), nullptr);
    // Next line misses.
    EXPECT_EQ(cache.lookup(0x140), nullptr);
}

TEST(Cache, LruEviction)
{
    // 2-way: fill both ways of set 0, touch the first, then allocate a
    // third line in the set — the untouched one must be evicted.
    Cache cache("t", smallCfg(2));
    std::uint64_t set_stride = cache.numSets() * 64;

    Eviction ev;
    cache.allocate(0x0, ev);
    cache.allocate(set_stride, ev);
    ASSERT_NE(cache.lookup(0x0), nullptr); // refresh LRU of first

    cache.allocate(2 * set_stride, ev);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.addr, set_stride);
    EXPECT_NE(cache.lookup(0x0, false), nullptr);
    EXPECT_EQ(cache.lookup(set_stride, false), nullptr);
}

TEST(Cache, DirtyEvictionCarriesData)
{
    Cache cache("t", smallCfg(1));
    Eviction ev;
    CacheLine *line = cache.allocate(0x40, ev);
    line->dirty = true;
    line->data[3] = 0xab;

    std::uint64_t set_stride = cache.numSets() * 64;
    cache.allocate(0x40 + set_stride, ev);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.addr, 0x40u);
    EXPECT_EQ(ev.data[3], 0xab);
}

TEST(Cache, Invalidate)
{
    Cache cache("t", smallCfg(2));
    Eviction ev;
    CacheLine *line = cache.allocate(0x80, ev);
    line->dirty = true;
    line->data[0] = 0x5a;

    EXPECT_TRUE(cache.invalidate(0x80, ev));
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.data[0], 0x5a);
    EXPECT_EQ(cache.lookup(0x80, false), nullptr);
    EXPECT_FALSE(cache.invalidate(0x80, ev));
}

TEST(Cache, MetadataPreservedOnLine)
{
    Cache cache("t", smallCfg(2));
    Eviction ev;
    CacheLine *line = cache.allocate(0x200, ev);
    line->usableAt = 12345;
    line->authSeq = 42;
    CacheLine *again = cache.lookup(0x200);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again->usableAt, 12345u);
    EXPECT_EQ(again->authSeq, 42u);
}

TEST(Cache, ForEachLineAddrRoundTrips)
{
    Cache cache("t", smallCfg(4));
    Eviction ev;
    cache.allocate(0x0, ev);
    cache.allocate(0x40, ev);
    cache.allocate(0x1000, ev);

    unsigned count = 0;
    cache.forEachLineAddr([&](Addr addr, CacheLine &line) {
        (void)line;
        ++count;
        EXPECT_NE(cache.lookup(addr, false), nullptr);
    });
    EXPECT_EQ(count, 3u);
}

/** Parameterized geometry sweep: basic invariants for many shapes. */
class CacheGeometry : public ::testing::TestWithParam<
                          std::tuple<unsigned, unsigned, unsigned>>
{};

TEST_P(CacheGeometry, FillWholeCacheNoSelfEvict)
{
    auto [size_kb, assoc, line] = GetParam();
    sim::CacheConfig cfg;
    cfg.sizeBytes = std::uint64_t(size_kb) * 1024;
    cfg.assoc = assoc;
    cfg.lineBytes = line;
    Cache cache("t", cfg);

    std::uint64_t lines = cfg.sizeBytes / line;
    // Allocate each line exactly once: no evictions should occur.
    for (std::uint64_t i = 0; i < lines; ++i) {
        Eviction ev;
        cache.allocate(i * line, ev);
        EXPECT_FALSE(ev.valid) << "self-eviction at line " << i;
    }
    // Everything present.
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_NE(cache.lookup(i * line, false), nullptr);
    // One more line evicts exactly one.
    Eviction ev;
    cache.allocate(lines * line, ev);
    EXPECT_TRUE(ev.valid);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheGeometry,
    ::testing::Values(std::make_tuple(1u, 1u, 32u),
                      std::make_tuple(1u, 2u, 32u),
                      std::make_tuple(4u, 4u, 64u),
                      std::make_tuple(8u, 8u, 64u),
                      std::make_tuple(16u, 1u, 32u),
                      std::make_tuple(2u, 4u, 64u)));

TEST(Tlb, HitAfterMiss)
{
    cache::Tlb tlb("t", 128, 4, 4096, 30);
    EXPECT_EQ(tlb.access(0x1000), 30u);
    EXPECT_EQ(tlb.access(0x1ffc), 0u); // same page
    EXPECT_EQ(tlb.access(0x2000), 30u); // next page
    EXPECT_EQ(tlb.hitCount(), 1u);
    EXPECT_EQ(tlb.missCount(), 2u);
}

TEST(Tlb, CapacityEviction)
{
    cache::Tlb tlb("t", 8, 2, 4096, 30);
    // 4 sets x 2 ways; map 3 pages to the same set -> one eviction.
    std::uint64_t set_stride = 4 * 4096;
    tlb.access(0 * set_stride);
    tlb.access(1 * set_stride);
    tlb.access(0 * set_stride); // refresh
    tlb.access(2 * set_stride); // evicts page 1
    EXPECT_EQ(tlb.access(0 * set_stride), 0u);
    EXPECT_EQ(tlb.access(1 * set_stride), 30u);
}

/** Fuzz property: the line just touched is never the next victim. */
TEST(Cache, MruNeverEvicted)
{
    Cache cache("t", smallCfg(4));
    acp::Rng rng(99);
    std::uint64_t set_stride = cache.numSets() * 64;

    // Fill one set completely.
    Eviction fill;
    for (unsigned way = 0; way < 4; ++way)
        cache.allocate(way * set_stride, fill);

    for (int trial = 0; trial < 200; ++trial) {
        // Touch a random resident line, then allocate a fresh line in
        // the same set: the touched line must survive.
        std::vector<Addr> resident;
        cache.forEachLineAddr([&](Addr addr, CacheLine &) {
            resident.push_back(addr);
        });
        ASSERT_FALSE(resident.empty());
        Addr touched = resident[rng.below(resident.size())];
        ASSERT_NE(cache.lookup(touched), nullptr);

        Eviction ev;
        cache.allocate((4 + trial) * set_stride, ev);
        ASSERT_TRUE(ev.valid);
        EXPECT_NE(ev.addr, touched);
    }
}
