/**
 * @file
 * Heap allocations of the timed loop's steady state. This binary
 * replaces the global operator new with one that counts the blocks
 * allocated while a check runs, so no other test binary sees it.
 *
 * Once a victim's loop is warm, every structure the core and the cache
 * hierarchy touch per cycle has its storage: a longer window must not
 * allocate more blocks than a shorter one.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>

#include "cache/cache.hh"
#include "sim/system.hh"
#include "workloads/victims.hh"

namespace
{

bool counting = false;
std::uint64_t blocks = 0;

void *
countedAlloc(std::size_t bytes) noexcept
{
    if (counting)
        ++blocks;
    return std::malloc(bytes != 0 ? bytes : 1);
}

/** Blocks operator new hands out while @p fn runs. */
template <typename Fn>
std::uint64_t
blocksAllocatedBy(Fn &&fn)
{
    blocks = 0;
    counting = true;
    fn();
    counting = false;
    return blocks;
}

} // namespace

void *
operator new(std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes)
{
    return operator new(bytes);
}

void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace acp;

// The pointer-conversion victim walks its list in L1-resident loops
// for the whole of an exploit's window. After a 5k-cycle warm-up, a
// 10k-cycle and a 90k-cycle window differ only in how long the loop
// runs, so they allocate the same blocks: the run's own per-window
// bookkeeping, and nothing per fetch, store or eviction.
TEST(SteadyState, ALongerTimedWindowAllocatesNoMoreBlocks)
{
    workloads::PointerConversionVictim victim =
        workloads::buildPointerConversionVictim(1);
    sim::SimConfig cfg = sim::paperConfig();
    cfg.policy = core::AuthPolicy::kBaseline;
    sim::System system(cfg, victim.prog);
    system.measureTimed(~0ULL >> 1, 5000);

    sim::RunResult shorter, longer;
    const std::uint64_t short_blocks = blocksAllocatedBy(
        [&] { shorter = system.measureTimed(~0ULL >> 1, 10000); });
    const std::uint64_t long_blocks = blocksAllocatedBy(
        [&] { longer = system.measureTimed(~0ULL >> 1, 90000); });

    // Both windows ran to their cycle limit: the loop never halted.
    EXPECT_EQ(shorter.reason, cpu::StopReason::kCycleLimit);
    EXPECT_EQ(longer.reason, cpu::StopReason::kCycleLimit);
    EXPECT_GT(longer.insts, 8 * shorter.insts);
    EXPECT_EQ(long_blocks, short_blocks);
}

namespace
{

/** Write a byte pattern seeded by @p seed into @p line and dirty it. */
void
scribble(cache::CacheLine &line, std::uint8_t seed)
{
    for (std::size_t i = 0; i < line.data.size(); ++i)
        line.data[i] = std::uint8_t(seed + 3 * i);
    line.dirty = true;
}

/** Whether @p ev carries the pattern scribble(@p seed) wrote. */
bool
carries(const cache::Eviction &ev, std::uint8_t seed, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        if (ev.data[i] != std::uint8_t(seed + 3 * i))
            return false;
    return true;
}

} // namespace

// A fill into a full set and the invalidation of a dirty line hand the
// victim's bytes out without a heap block: the line keeps its buffer
// for its next fill.
TEST(SteadyState, EvictionsAllocateNothingAndReturnTheVictimsBytes)
{
    cache::Cache cache("t", {1024, 2, 64, 1});
    const Addr set_stride = cache.numSets() * 64;
    cache::Eviction ev;
    scribble(*cache.allocate(0, ev), 1);
    scribble(*cache.allocate(set_stride, ev), 2);

    EXPECT_EQ(blocksAllocatedBy(
                  [&] { cache.allocate(2 * set_stride, ev); }),
              0u);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.addr, 0u);
    EXPECT_TRUE(carries(ev, 1, 64));

    cache::Eviction gone;
    EXPECT_EQ(blocksAllocatedBy(
                  [&] { cache.invalidate(set_stride, gone); }),
              0u);
    EXPECT_TRUE(gone.valid);
    EXPECT_TRUE(gone.dirty);
    EXPECT_EQ(gone.addr, set_stride);
    EXPECT_TRUE(carries(gone, 2, 64));

    // The invalidated way refills from the buffer it kept.
    cache::Eviction none;
    cache::CacheLine *line = nullptr;
    EXPECT_EQ(blocksAllocatedBy(
                  [&] { line = cache.allocate(3 * set_stride, none); }),
              0u);
    EXPECT_FALSE(none.valid);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->data.size(), 64u);
}
