/**
 * @file
 * Unit tests for the common utilities: bit operations, RNG
 * determinism, the stats package, the JSON writer, and the option
 * list splitter.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/json.hh"
#include "common/parse.hh"
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

namespace
{

/** @p text as the writer puts a JSON string value. */
std::string
quoted(const std::string &text)
{
    json::Writer w;
    w.value(text);
    return w.str();
}

} // namespace

TEST(Json, EscapesQuotesBackslashesAndControlBytes)
{
    EXPECT_EQ(quoted("plain text"), "\"plain text\"");
    EXPECT_EQ(quoted("\""), "\"\\\"\"");
    EXPECT_EQ(quoted("\\"), "\"\\\\\"");
    EXPECT_EQ(quoted("\n"), "\"\\n\"");
    EXPECT_EQ(quoted("\t"), "\"\\t\"");
    // Every other control byte, carriage return included, becomes a
    // four-hex-digit unicode escape.
    EXPECT_EQ(quoted("\r"), "\"\\u000d\"");
    EXPECT_EQ(quoted("\x01"), "\"\\u0001\"");
    EXPECT_EQ(quoted("a\"b\\c\r\n"), "\"a\\\"b\\\\c\\u000d\\n\"");
}

TEST(Json, WriterNestsIndentsAndSeparates)
{
    json::Writer w;
    w.beginObject();
    w.key("name").value("acp");
    w.key("empty").beginObject().endObject();
    w.key("none").beginArray().endArray();
    w.key("list").beginArray();
    w.value(1u).value(2u);
    // A one-line container keeps everything inside it on its line.
    w.beginObject(json::kOneLine);
    w.key("on").value(true);
    w.key("flags").beginArray().value(false).endArray();
    w.key("none").beginObject().endObject();
    w.endObject();
    w.endArray();
    w.key("nested").beginObject();
    w.key("inner").beginObject().key("depth").value(2).endObject();
    w.endObject();
    w.endObject();
    EXPECT_EQ(w.str(), "{\n"
                       "  \"name\": \"acp\",\n"
                       "  \"empty\": {},\n"
                       "  \"none\": [],\n"
                       "  \"list\": [\n"
                       "    1,\n"
                       "    2,\n"
                       "    {\"on\": true, \"flags\": [false], \"none\": {}}\n"
                       "  ],\n"
                       "  \"nested\": {\n"
                       "    \"inner\": {\n"
                       "      \"depth\": 2\n"
                       "    }\n"
                       "  }\n"
                       "}");
}

TEST(Json, WriterEscapesKeysAndValues)
{
    json::Writer w;
    w.beginObject(json::kOneLine);
    w.key("a\"b").value("c\\d\n");
    w.key(std::string("tab\t")).value(std::string("\x01"));
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"a\\\"b\": \"c\\\\d\\n\", \"tab\\t\": \"\\u0001\"}");
}

TEST(Json, WriterPrintsNumbers)
{
    json::Writer w;
    w.beginArray(json::kOneLine);
    w.value(std::uint64_t(18446744073709551615ULL));
    w.value(std::int64_t(-1));
    w.value(0.1);
    w.value(1.0);
    w.fixed(0.1234567, 6);
    w.fixed(2.0, 3);
    w.endArray();
    EXPECT_EQ(w.str(), "[18446744073709551615, -1, 0.10000000000000001, "
                       "1, 0.123457, 2.000]");
}

TEST(Json, WriteFileEndsTheDocumentWithANewline)
{
    const std::string path = "test_common_write_file.json";
    ASSERT_TRUE(json::writeFile(path, [](json::Writer &w) {
        w.beginObject().key("ok").value(true).endObject();
    }));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char text[64] = {};
    std::size_t n = std::fread(text, 1, sizeof(text) - 1, f);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(std::string(text, n), "{\n  \"ok\": true\n}\n");

    EXPECT_FALSE(json::writeFile("no_such_dir/x.json", [](json::Writer &w) {
        w.beginObject().endObject();
    }));
}

TEST(Json, WriteFileReportsAFullDevice)
{
    if (std::FILE *probe = std::fopen("/dev/full", "w"))
        std::fclose(probe);
    else
        GTEST_SKIP() << "no /dev/full on this host";
    // A short document fails only when fclose flushes it; a long one
    // already fails while it streams.
    EXPECT_FALSE(json::writeFile("/dev/full", [](json::Writer &w) {
        w.beginObject().endObject();
    }));
    EXPECT_FALSE(json::writeFile("/dev/full", [](json::Writer &w) {
        w.beginArray();
        for (unsigned i = 0; i < 100000; ++i)
            w.beginArray(json::kOneLine).value(i).endArray();
        w.endArray();
    }));
}

TEST(Parse, SplitOnDropsEmptyParts)
{
    using Parts = std::vector<std::string>;
    EXPECT_EQ(splitOn("a,,b", ','), (Parts{"a", "b"}));
    EXPECT_EQ(splitOn(",a,b", ','), (Parts{"a", "b"}));
    EXPECT_EQ(splitOn("a,b,", ','), (Parts{"a", "b"}));
    EXPECT_EQ(splitOn("mcf+swim", '+'), (Parts{"mcf", "swim"}));
    EXPECT_EQ(splitOn("commit+fetch", ','), Parts{"commit+fetch"});
    EXPECT_EQ(splitOn("", ','), Parts{});
    EXPECT_EQ(splitOn(",", ','), Parts{});
}
