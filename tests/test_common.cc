/**
 * @file
 * Unit tests for the common utilities: bit operations, RNG
 * determinism, the stats package, and the JSON string escaper.
 */

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "common/stats.hh"

using namespace acp;

TEST(BitOps, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 63));
    EXPECT_FALSE(isPowerOfTwo((1ULL << 63) + 1));
}

TEST(BitOps, FloorCeilLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(1ULL << 40), 40u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4), 2u);
    EXPECT_EQ(ceilLog2(5), 3u);
}

TEST(BitOps, BitsExtract)
{
    EXPECT_EQ(bits(0xdeadbeefULL, 15, 0), 0xbeefULL);
    EXPECT_EQ(bits(0xdeadbeefULL, 31, 16), 0xdeadULL);
    EXPECT_EQ(bits(0xffULL, 3, 0), 0xfULL);
    EXPECT_EQ(bits(~0ULL, 63, 0), ~0ULL);
}

TEST(BitOps, SignExtend)
{
    EXPECT_EQ(sext(0x8000, 16), -32768);
    EXPECT_EQ(sext(0x7fff, 16), 32767);
    EXPECT_EQ(sext(0xff, 8), -1);
    EXPECT_EQ(sext(0x7f, 8), 127);
}

TEST(BitOps, Align)
{
    EXPECT_EQ(alignDown(0x1234, 0x100), 0x1200ULL);
    EXPECT_EQ(alignUp(0x1234, 0x100), 0x1300ULL);
    EXPECT_EQ(alignUp(0x1200, 0x100), 0x1200ULL);
    EXPECT_EQ(divCeil(10, 3), 4ULL);
    EXPECT_EQ(divCeil(9, 3), 3ULL);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i) {
        double v = r.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Stats, CounterAndDump)
{
    StatCounter hits, misses;
    StatGroup group("l1");
    group.addCounter("hits", &hits);
    group.addCounter("misses", &misses);
    ++hits;
    hits += 4;
    ++misses;
    EXPECT_EQ(hits.value(), 5u);
    EXPECT_EQ(misses.value(), 1u);

    std::string out;
    group.dump(out);
    EXPECT_NE(out.find("l1.hits 5"), std::string::npos);
    EXPECT_NE(out.find("l1.misses 1"), std::string::npos);

    group.resetAll();
    EXPECT_EQ(hits.value(), 0u);
}

TEST(Stats, Average)
{
    StatAverage avg;
    avg.sample(1.0);
    avg.sample(3.0);
    avg.sample(5.0);
    EXPECT_DOUBLE_EQ(avg.mean(), 3.0);
    EXPECT_DOUBLE_EQ(avg.min(), 1.0);
    EXPECT_DOUBLE_EQ(avg.max(), 5.0);
    EXPECT_EQ(avg.count(), 3u);
}

TEST(Json, EscapesQuotesBackslashesAndControlBytes)
{
    EXPECT_EQ(json::escape("plain text"), "plain text");
    EXPECT_EQ(json::escape("\""), "\\\"");
    EXPECT_EQ(json::escape("\\"), "\\\\");
    EXPECT_EQ(json::escape("\n"), "\\n");
    EXPECT_EQ(json::escape("\t"), "\\t");
    // Every other control byte, carriage return included, becomes a
    // four-hex-digit unicode escape.
    EXPECT_EQ(json::escape("\r"), "\\u000d");
    EXPECT_EQ(json::escape("\x01"), "\\u0001");
    EXPECT_EQ(json::escape("a\"b\\c\r\n"), "a\\\"b\\\\c\\u000d\\n");
}
