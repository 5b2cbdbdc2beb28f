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
#include "workloads/workloads.hh"

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

// mcf at 2 MiB chases pointers through eight times the L2: under
// authen-then-commit about one instruction in ten posts an
// authentication request. A timed warm-up of 700k instructions fills
// the caches and posts more requests than the engine remembers (its
// history window is 65,536), so the history has stopped growing. From there an 80k-instruction window
// allocates no more blocks than a 20k one: nothing on the memory
// path, the engine's history included, allocates per request.
TEST(SteadyState, AMemoryBoundWindowAllocatesNoMoreBlocks)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 2 << 20;
    const isa::Program prog = workloads::build("mcf", params);
    sim::SimConfig cfg = sim::paperConfig();
    cfg.policy = core::AuthPolicy::kAuthThenCommit;
    sim::System system(cfg, prog);
    system.fastForward(30000);
    system.measureTimed(700000, ~0ULL >> 1);
    const secmem::AuthEngine &eng = system.hier().ctrl().authEngine();
    ASSERT_GT(eng.lastRequest(), AuthSeq(1) << 16);

    sim::RunResult shorter, longer;
    const AuthSeq before = eng.lastRequest();
    const std::uint64_t short_blocks = blocksAllocatedBy(
        [&] { shorter = system.measureTimed(20000, ~0ULL >> 1); });
    const std::uint64_t long_blocks = blocksAllocatedBy(
        [&] { longer = system.measureTimed(80000, ~0ULL >> 1); });

    EXPECT_EQ(shorter.reason, cpu::StopReason::kInstLimit);
    EXPECT_EQ(longer.reason, cpu::StopReason::kInstLimit);
    // Both windows posted requests: about one per ten instructions.
    EXPECT_GT(eng.lastRequest() - before, 5000u);
    EXPECT_LE(long_blocks, short_blocks);
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
