/**
 * @file
 * Secure-memory tests: external (ciphertext) memory round trips and
 * tamper detection, the in-order authentication engine, the one
 * metadata-line access, the hash tree and the remap layer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "crypto/sha256.hh"
#include "secmem/auth_engine.hh"
#include "secmem/counter_predictor.hh"
#include "secmem/external_memory.hh"
#include "secmem/hash_tree.hh"
#include "secmem/meta_port.hh"
#include "secmem/remap.hh"
#include "sim/config.hh"

using namespace acp;
using namespace acp::secmem;

// ---------------------------------------------------------------- extmem

TEST(ExternalMemory, LazyLinesReadZero)
{
    ExternalMemory ext(1);
    FetchedLine line = ext.fetchLine(0x12340);
    EXPECT_TRUE(line.macOk);
    for (auto byte : line.plain)
        EXPECT_EQ(byte, 0);
}

TEST(ExternalMemory, StoreFetchRoundTrip)
{
    ExternalMemory ext(2);
    std::uint8_t data[kExtLineBytes];
    for (unsigned i = 0; i < kExtLineBytes; ++i)
        data[i] = std::uint8_t(i * 3);
    ext.storeLine(0x4000, data);

    FetchedLine line = ext.fetchLine(0x4000);
    EXPECT_TRUE(line.macOk);
    EXPECT_EQ(0, std::memcmp(line.plain.data(), data, kExtLineBytes));
    EXPECT_EQ(line.counter, 1u);
}

TEST(ExternalMemory, CounterIncrementsPerStore)
{
    ExternalMemory ext(3);
    std::uint8_t data[kExtLineBytes] = {0};
    for (int i = 0; i < 5; ++i)
        ext.storeLine(0x8000, data);
    EXPECT_EQ(ext.counterOf(0x8000), 5u);
    EXPECT_EQ(ext.counterOf(0x8040), 0u);
}

TEST(ExternalMemory, ProvisionDoesNotBumpCounter)
{
    ExternalMemory ext(4);
    std::uint8_t data[kExtLineBytes] = {1, 2, 3};
    ext.provision(0x1000, data, kExtLineBytes);
    EXPECT_EQ(ext.counterOf(0x1000), 0u);
    FetchedLine line = ext.fetchLine(0x1000);
    EXPECT_TRUE(line.macOk);
    EXPECT_EQ(line.plain[0], 1);
}

// A partial provision merges its bytes into the line's plaintext,
// keeps the counter, counts no traffic, and leaves a sealed (here
// tampered) line unsealed: the merged line reads back verified, with
// the tamper's flips now part of its plaintext.
TEST(ExternalMemory, PartialProvisionMergesAndUnseals)
{
    ExternalMemory ext(8);
    std::uint8_t line[kExtLineBytes];
    for (unsigned i = 0; i < kExtLineBytes; ++i)
        line[i] = std::uint8_t(0x40 + i);
    ext.storeLine(0x5000, line);
    ext.storeLine(0x5000, line);
    ext.storeLine(0x5040, line);
    std::uint8_t flip = 0x0f;
    ext.tamper(0x5040 + 9, &flip, 1);
    auto counts = [&ext] {
        std::string out;
        ext.stats().dump(out);
        return out;
    };
    const std::string before = counts();

    // Bytes 60..67: the tail of the stored line and the head of the
    // tampered one.
    const std::uint8_t bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    ext.provision(0x5000 + 60, bytes, sizeof bytes);
    EXPECT_EQ(counts(), before);
    EXPECT_EQ(ext.counterOf(0x5000), 2u);
    EXPECT_EQ(ext.counterOf(0x5040), 1u);

    FetchedLine a = ext.fetchLine(0x5000);
    FetchedLine b = ext.fetchLine(0x5040);
    EXPECT_TRUE(a.macOk);
    EXPECT_TRUE(b.macOk);
    for (unsigned i = 0; i < kExtLineBytes; ++i) {
        std::uint8_t want_a = i >= 60 ? bytes[i - 60] : line[i];
        std::uint8_t want_b = i < 4 ? bytes[4 + i] : line[i];
        if (i == 9)
            want_b ^= flip;
        EXPECT_EQ(a.plain[i], want_a) << i;
        EXPECT_EQ(b.plain[i], want_b) << i;
    }
}

TEST(ExternalMemory, TamperDetectedByMac)
{
    ExternalMemory ext(5);
    std::uint8_t data[kExtLineBytes] = {0xaa, 0xbb};
    ext.storeLine(0x2000, data);

    std::uint8_t mask = 0x01;
    ext.tamper(0x2007, &mask, 1);

    FetchedLine line = ext.fetchLine(0x2000);
    EXPECT_FALSE(line.macOk);
    // CTR malleability: exactly the tampered bit flipped in plaintext.
    EXPECT_EQ(line.plain[7], data[7] ^ 0x01);
    EXPECT_EQ(line.plain[0], data[0]);
}

TEST(ExternalMemory, TamperAcrossLines)
{
    ExternalMemory ext(6);
    std::uint8_t mask[4] = {0xff, 0xff, 0xff, 0xff};
    ext.tamper(kExtLineBytes - 2, mask, 4); // spans line 0 and line 1
    EXPECT_FALSE(ext.fetchLine(0).macOk);
    EXPECT_FALSE(ext.fetchLine(kExtLineBytes).macOk);
}

TEST(ExternalMemory, CiphertextDiffersFromPlaintext)
{
    ExternalMemory ext(7);
    std::uint8_t data[kExtLineBytes];
    for (unsigned i = 0; i < kExtLineBytes; ++i)
        data[i] = std::uint8_t(i);
    ext.storeLine(0x3000, data);
    auto cipher = ext.readCiphertext(0x3000, kExtLineBytes);
    EXPECT_NE(0, std::memcmp(cipher.data(), data, kExtLineBytes));
}

namespace
{

/** Feeds every observable result of an ExternalMemory into SHA-256. */
struct ExtMemDigest final : StatVisitor
{
    crypto::Sha256 sha;

    void
    add(const void *data, std::size_t len)
    {
        sha.update(static_cast<const std::uint8_t *>(data), len);
    }

    void add64(std::uint64_t v) { add(&v, sizeof v); }

    void
    add(const FetchedLine &line)
    {
        add(line.plain.data(), line.plain.size());
        add64(line.counter);
        add64(line.macOk);
    }

    void onCounter(const std::string &, std::uint64_t v) override { add64(v); }

    std::string
    hex()
    {
        std::uint8_t d[crypto::kSha256DigestBytes];
        sha.final(d);
        std::string out;
        char buf[3];
        for (std::uint8_t byte : d) {
            std::snprintf(buf, sizeof buf, "%02x", byte);
            out += buf;
        }
        return out;
    }
};

/**
 * Drive one ExternalMemory with a seeded stream of every operation on
 * 32 lines and return the SHA-256 of all it returned: plaintexts,
 * counters, MAC verdicts, ciphertext bytes, the extmem.* counters and
 * linesTouched().
 */
std::string
extMemStreamDigest(std::uint64_t seed)
{
    constexpr Addr kBase = 0x40000;
    constexpr unsigned kLines = 32;
    ExternalMemory ext(seed);
    Rng rng(seed);
    ExtMemDigest h;
    auto lineAddr = [&](unsigned i) { return kBase + Addr(i) * kExtLineBytes; };
    auto randomLine = [&](std::uint8_t *buf) {
        for (unsigned i = 0; i < kExtLineBytes; ++i)
            buf[i] = std::uint8_t(rng.next());
    };
    std::uint8_t buf[kExtLineBytes];
    std::uint8_t mask[2 * kExtLineBytes];
    const std::uint8_t flip[4] = {0x80, 0x01, 0xff, 0x10};

    // The cases the random stream must not leave to chance: tamper
    // before first use (line 0), tamper then store (1), tamper then
    // provision (2), readCiphertext then fetch (3).
    ext.tamper(lineAddr(0) + 5, flip, 4);
    h.add(ext.fetchLine(lineAddr(0)));
    ext.tamper(lineAddr(1), flip, 4);
    randomLine(buf);
    ext.storeLine(lineAddr(1), buf);
    h.add(ext.fetchLine(lineAddr(1)));
    ext.tamper(lineAddr(2) + 60, flip, 4);
    randomLine(buf);
    ext.provision(lineAddr(2), buf, kExtLineBytes);
    h.add(ext.fetchLine(lineAddr(2)));
    randomLine(buf);
    ext.provision(lineAddr(3), buf, kExtLineBytes);
    auto cipher = ext.readCiphertext(lineAddr(3), kExtLineBytes);
    h.add(cipher.data(), cipher.size());
    h.add(ext.fetchLine(lineAddr(3)));

    for (int op = 0; op < 10000; ++op) {
        Addr line = lineAddr(unsigned(rng.below(kLines)));
        Addr byte = line + rng.below(kExtLineBytes);
        switch (rng.below(8)) {
          case 0:
            randomLine(buf);
            ext.provision(line, buf, kExtLineBytes);
            break;
          case 1:
            randomLine(buf);
            ext.storeLine(byte, buf);
            break;
          case 2:
          case 3:
            h.add(ext.fetchLine(byte));
            break;
          case 4:
            h.add64(ext.counterOf(byte));
            break;
          case 5: {
            auto c = ext.readCiphertext(byte, 1 + rng.below(2 * kExtLineBytes));
            h.add(c.data(), c.size());
            break;
          }
          default: {
            // Random, all-zero or line-crossing masks.
            std::size_t len = 1 + rng.below(8);
            switch (rng.below(3)) {
              case 0:
                for (std::size_t i = 0; i < len; ++i)
                    mask[i] = std::uint8_t(rng.next());
                break;
              case 1:
                std::memset(mask, 0, len);
                break;
              default:
                byte = line + kExtLineBytes - 1 - rng.below(4);
                len = 5 + rng.below(kExtLineBytes);
                for (std::size_t i = 0; i < len; ++i)
                    mask[i] = std::uint8_t(rng.next() | 1);
                break;
            }
            ext.tamper(byte, mask, len);
            break;
          }
        }
    }
    for (unsigned i = 0; i <= kLines; ++i) {
        h.add(ext.fetchLine(lineAddr(i)));
        auto c = ext.readCiphertext(lineAddr(i), kExtLineBytes);
        h.add(c.data(), c.size());
    }
    ext.stats().visit(h);
    h.add64(ext.linesTouched());
    return h.hex();
}

} // namespace

// Storing plaintext and sealing a line only when the adversary reads
// or writes its ciphertext must be indistinguishable from encrypting
// and MACing every line on every write. The constants were recorded
// by compiling this test body, unchanged, against the eager
// ExternalMemory that preceded lazy sealing (every provision and
// store encrypted and MACed the line, every fetch decrypted and
// verified it) and copying the digests it printed.
TEST(ExternalMemory, LazySealingMatchesEagerCrypto)
{
    EXPECT_EQ(extMemStreamDigest(1),
              "84bae3a9beabc421d13cfa4508aba21fe8c6dfda3d88e0034b3c7f336595dba8");
    EXPECT_EQ(extMemStreamDigest(2),
              "ea72ecc5715d52e01132c29f760481c2fb056a0b8982d387453440f2686c3d98");
    EXPECT_EQ(extMemStreamDigest(3),
              "1d3f95aa70a84d1b22029e21608431be76490547d5b1db59bf4ad796d6ac194f");
}

TEST(ExternalMemory, TamperFlipsExactlyTheMaskedBits)
{
    Rng rng(21);
    for (int trial = 0; trial < 64; ++trial) {
        ExternalMemory ext(trial);
        std::uint8_t data[kExtLineBytes];
        for (auto &b : data)
            b = std::uint8_t(rng.next());
        Addr line = 0x9000;
        if (trial % 2)
            ext.storeLine(line, data);
        else
            ext.provision(line, data, kExtLineBytes);

        std::uint8_t mask[kExtLineBytes] = {};
        if (trial % 4 != 3) // every fourth mask stays all zero
            for (auto &b : mask)
                b = rng.chance(0.1) ? std::uint8_t(rng.next()) : 0;
        bool zero = std::all_of(mask, mask + kExtLineBytes,
                                [](std::uint8_t b) { return b == 0; });
        ext.tamper(line, mask, kExtLineBytes);

        FetchedLine got = ext.fetchLine(line);
        for (unsigned i = 0; i < kExtLineBytes; ++i)
            ASSERT_EQ(got.plain[i], data[i] ^ mask[i]) << trial << " " << i;
        EXPECT_EQ(got.macOk, zero) << trial;
        EXPECT_EQ(got.counter, trial % 2 ? 1u : 0u);
    }
}

TEST(ExternalMemory, StoreAfterTamperVerifiesWithNextCounter)
{
    ExternalMemory ext(22);
    std::uint8_t data[kExtLineBytes] = {7, 8, 9};
    ext.storeLine(0xa000, data);
    std::uint8_t mask[2] = {0x40, 0x04};
    ext.tamper(0xa000 + kExtLineBytes - 1, mask, 2); // crosses a line
    EXPECT_FALSE(ext.fetchLine(0xa000).macOk);
    EXPECT_FALSE(ext.fetchLine(0xa000 + kExtLineBytes).macOk);

    data[0] = 0x55;
    ext.storeLine(0xa000, data);
    FetchedLine line = ext.fetchLine(0xa000);
    EXPECT_TRUE(line.macOk);
    EXPECT_EQ(line.counter, 2u);
    EXPECT_EQ(0, std::memcmp(line.plain.data(), data, kExtLineBytes));
    // The neighbour keeps its tamper until it is written.
    EXPECT_FALSE(ext.fetchLine(0xa000 + kExtLineBytes).macOk);
}

TEST(ExternalMemory, ReadingCiphertextChangesNothing)
{
    ExternalMemory read(23), untouched(23);
    std::uint8_t data[kExtLineBytes];
    for (unsigned i = 0; i < kExtLineBytes; ++i)
        data[i] = std::uint8_t(i * 7);
    for (ExternalMemory *ext : {&read, &untouched}) {
        ext->provision(0xb000, data, kExtLineBytes);
        ext->storeLine(0xb040, data);
    }
    auto first = read.readCiphertext(0xb010, 2 * kExtLineBytes);
    auto second = read.readCiphertext(0xb010, 2 * kExtLineBytes);
    EXPECT_EQ(first, second);
    for (Addr line : {Addr(0xb000), Addr(0xb040), Addr(0xb080)}) {
        FetchedLine a = read.fetchLine(line), b = untouched.fetchLine(line);
        EXPECT_TRUE(a.macOk);
        EXPECT_EQ(a.plain, b.plain);
        EXPECT_EQ(a.counter, b.counter);
    }
    EXPECT_EQ(read.readCiphertext(0xb010, 2 * kExtLineBytes), first);
}

namespace
{

/** Apply [addr, addr + len) of an operation one line at a time. */
template <typename Op>
void
perLine(Addr addr, std::size_t len, Op op)
{
    std::size_t done = 0;
    while (done < len) {
        Addr a = addr + done;
        std::size_t n = std::min<std::size_t>(
            len - done, kExtLineBytes - (a % kExtLineBytes));
        op(a, done, n);
        done += n;
    }
}

} // namespace

TEST(ExternalMemory, RangesAcrossAPageEndMatchLineByLine)
{
    // 300 bytes from 100 below a 4 KiB page end: two partial lines and
    // three whole ones, across two pages.
    constexpr Addr kAddr = 0x7000 - 100;
    constexpr std::size_t kLen = 300;
    Rng rng(24);
    std::vector<std::uint8_t> data(kLen), mask(kLen);
    for (std::size_t i = 0; i < kLen; ++i) {
        data[i] = std::uint8_t(rng.next());
        mask[i] = std::uint8_t(rng.next());
    }

    ExternalMemory whole(25), lines(25);
    whole.provision(kAddr, data.data(), kLen);
    perLine(kAddr, kLen, [&](Addr a, std::size_t done, std::size_t n) {
        lines.provision(a, data.data() + done, n);
    });
    const Addr first = kAddr & ~Addr(kExtLineBytes - 1);
    const Addr last = (kAddr + kLen - 1) & ~Addr(kExtLineBytes - 1);
    for (Addr line = first; line <= last; line += kExtLineBytes) {
        FetchedLine got = whole.fetchLine(line);
        for (unsigned i = 0; i < kExtLineBytes; ++i) {
            Addr a = line + i;
            std::uint8_t want =
                a >= kAddr && a < kAddr + kLen ? data[a - kAddr] : 0;
            ASSERT_EQ(got.plain[i], want) << std::hex << a;
        }
        FetchedLine ref = lines.fetchLine(line);
        EXPECT_EQ(got.plain, ref.plain);
    }

    // The ciphertext read across the page end is the lines' ciphertext
    // side by side; so is the tampered ciphertext.
    std::vector<std::uint8_t> cipher = whole.readCiphertext(kAddr, kLen);
    std::vector<std::uint8_t> line_cipher(kLen);
    perLine(kAddr, kLen, [&](Addr a, std::size_t done, std::size_t n) {
        std::vector<std::uint8_t> part = lines.readCiphertext(a, n);
        std::copy(part.begin(), part.end(), line_cipher.begin() + done);
    });
    EXPECT_EQ(cipher, line_cipher);

    whole.tamper(kAddr, mask.data(), kLen);
    perLine(kAddr, kLen, [&](Addr a, std::size_t done, std::size_t n) {
        lines.tamper(a, mask.data() + done, n);
    });
    std::vector<std::uint8_t> tampered = whole.readCiphertext(kAddr, kLen);
    for (std::size_t i = 0; i < kLen; ++i)
        ASSERT_EQ(tampered[i], cipher[i] ^ mask[i]) << i;
    perLine(kAddr, kLen, [&](Addr a, std::size_t done, std::size_t n) {
        std::vector<std::uint8_t> part = lines.readCiphertext(a, n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(part[i], tampered[done + i]) << done + i;
    });

    for (Addr line = first; line <= last; line += kExtLineBytes) {
        FetchedLine got = whole.fetchLine(line), ref = lines.fetchLine(line);
        EXPECT_EQ(got.plain, ref.plain);
        EXPECT_FALSE(got.macOk);
        EXPECT_FALSE(ref.macOk);
        for (unsigned i = 0; i < kExtLineBytes; ++i) {
            Addr a = line + i;
            if (a >= kAddr && a < kAddr + kLen) {
                ASSERT_EQ(got.plain[i], data[a - kAddr] ^ mask[a - kAddr])
                    << std::hex << a;
            }
        }
    }
    EXPECT_EQ(whole.linesTouched(), 6u);
    EXPECT_EQ(lines.linesTouched(), 6u);
}

TEST(ExternalMemory, LinesTouchedCountsLinesNotPages)
{
    ExternalMemory ext(26);
    std::uint8_t data[3 * kExtLineBytes] = {1, 2, 3};
    ext.provision(0xc000, data, sizeof data);
    EXPECT_EQ(ext.linesTouched(), 3u);
    // Touching them again counts nothing; a fetch of a fourth,
    // untouched line of the same page counts it.
    ext.provision(0xc000 + 10, data, 2 * kExtLineBytes);
    ext.fetchLine(0xc040);
    EXPECT_EQ(ext.linesTouched(), 3u);
    ext.fetchLine(0xc000 + 9 * kExtLineBytes);
    EXPECT_EQ(ext.linesTouched(), 4u);
    // Asking for a counter materializes nothing.
    EXPECT_EQ(ext.counterOf(0xc000 + 20 * kExtLineBytes), 0u);
    EXPECT_EQ(ext.linesTouched(), 4u);
}

TEST(ExternalMemory, UntouchedLineOfATouchedPageHasCounterZero)
{
    ExternalMemory ext(27);
    std::uint8_t data[kExtLineBytes] = {9};
    ext.storeLine(0xd040, data);
    ext.storeLine(0xd040, data);
    EXPECT_EQ(ext.counterOf(0xd040), 2u);
    EXPECT_EQ(ext.counterOf(0xd040 + 17), 2u); // any byte of the line
    EXPECT_EQ(ext.counterOf(0xd000), 0u);
    EXPECT_EQ(ext.counterOf(0xd080), 0u);
    EXPECT_EQ(ext.counterOf(0xdfc0), 0u);
    EXPECT_EQ(ext.counterOf(0xe040), 0u); // same slot, untouched page
    EXPECT_EQ(ext.linesTouched(), 1u);
}

// ---------------------------------------------------------------- engine

TEST(AuthEngine, InOrderCompletion)
{
    AuthEngine eng(100, 100); // serial

    AuthSeq a = eng.post(1000, 0, true);
    AuthSeq b = eng.post(1000, 0, true);
    AuthSeq c = eng.post(1000, 0, true);
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(c, 3u);
    EXPECT_EQ(eng.lastRequest(), 3u);

    // Serial engine: each completion 100 cycles after the previous
    // start.
    EXPECT_EQ(eng.doneCycle(a), 1100u);
    EXPECT_EQ(eng.doneCycle(b), 1200u);
    EXPECT_EQ(eng.doneCycle(c), 1300u);
    EXPECT_LE(eng.doneCycle(a), eng.doneCycle(b));
    EXPECT_LE(eng.doneCycle(b), eng.doneCycle(c));
}

TEST(AuthEngine, PipelinedEngineOverlaps)
{
    AuthEngine eng(148, 74); // pipelined: one pass occupancy
    eng.post(0, 0, true);
    AuthSeq b = eng.post(0, 0, true);
    EXPECT_EQ(eng.doneCycle(b), 74u + 148u);
}

TEST(AuthEngine, IdleEngineNoQueueDelay)
{
    AuthEngine eng(148, 148);
    AuthSeq a = eng.post(5000, 0, true);
    EXPECT_EQ(eng.doneCycle(a), 5148u);
    // Long idle gap: next request starts immediately at its ready time.
    AuthSeq b = eng.post(100000, 0, true);
    EXPECT_EQ(eng.doneCycle(b), 100148u);
}

TEST(AuthEngine, NoSeqQueriesReturnZero)
{
    AuthEngine eng(148, 148);
    EXPECT_EQ(eng.doneCycle(kNoAuthSeq), 0u);
    EXPECT_TRUE(eng.verifiedBy(kNoAuthSeq, 0));
}

TEST(AuthEngine, FailureTracking)
{
    AuthEngine eng(10, 10);
    eng.post(0, 0, true);
    EXPECT_FALSE(eng.anyFailure(0));
    AuthSeq bad = eng.post(0, 0, false);
    eng.post(0, 0, true);
    EXPECT_TRUE(eng.anyFailure(0));
    EXPECT_EQ(eng.firstFailedSeq(0), bad);
    EXPECT_EQ(eng.firstFailureCycle(0), eng.doneCycle(bad));
}

// A gate tag never verifies once it covers the client's first failed
// request: the tag at or after it does, no tag and an earlier tag do
// not, and a neighbour client's failure poisons nothing of client 0.
TEST(AuthEngine, NeverVerifiesFromTheClientsFirstFailure)
{
    AuthEngine eng(10, 10, 2);
    AuthSeq before = eng.post(0, 0, true, 0);
    AuthSeq neighbour_bad = eng.post(0, 0, false, 1);
    AuthSeq bad = eng.post(0, 0, false, 0);
    AuthSeq after = eng.post(0, 0, true, 0);
    ASSERT_LT(neighbour_bad, bad);

    EXPECT_FALSE(eng.neverVerifies(kNoAuthSeq, 0));
    EXPECT_FALSE(eng.neverVerifies(before, 0));
    EXPECT_FALSE(eng.neverVerifies(neighbour_bad, 0));
    EXPECT_TRUE(eng.neverVerifies(bad, 0));
    EXPECT_TRUE(eng.neverVerifies(after, 0));

    // Client 1 failed first, at neighbour_bad: client 0's tags before
    // it verify for client 1, the rest never do.
    EXPECT_FALSE(eng.neverVerifies(kNoAuthSeq, 1));
    EXPECT_FALSE(eng.neverVerifies(before, 1));
    EXPECT_TRUE(eng.neverVerifies(neighbour_bad, 1));

    // A client with no failure verifies every tag.
    AuthEngine clean(10, 10, 2);
    AuthSeq ok = clean.post(0, 0, true, 0);
    clean.post(0, 0, false, 1);
    EXPECT_FALSE(clean.neverVerifies(ok, 0));
    EXPECT_FALSE(clean.neverVerifies(ok + 1, 0));
}

TEST(AuthEngine, ExtraLatencyExtendsCompletion)
{
    AuthEngine eng(100, 100);
    AuthSeq a = eng.post(0, 50, true);
    EXPECT_EQ(eng.doneCycle(a), 150u);
}

// ------------------------------------------------------------- hash tree

namespace
{

/** Metadata port charging a fixed 100-cycle access. */
struct FixedPort final : MetaMemPort
{
    Cycle read(Addr, Cycle c) const override { return c + 100; }
    Cycle write(Addr, Cycle c) const override { return c + 100; }
};

const FixedPort fixedMem;

/** Fixed-latency port that counts reads (entry fetches). */
struct CountingPort final : MetaMemPort
{
    mutable int fetches = 0;

    Cycle
    read(Addr, Cycle c) const override
    {
        ++fetches;
        return c + 100;
    }

    Cycle write(Addr, Cycle c) const override { return c + 100; }
};

/** Metadata port that records every call; a read takes 100 cycles,
 *  a write 7. */
struct RecordingPort final : MetaMemPort
{
    struct Call
    {
        bool write;
        Addr addr;
        Cycle cycle;
        bool operator==(const Call &) const = default;
    };
    mutable std::vector<Call> calls;

    Cycle
    read(Addr addr, Cycle c) const override
    {
        calls.push_back({false, addr, c});
        return c + 100;
    }

    Cycle
    write(Addr addr, Cycle c) const override
    {
        calls.push_back({true, addr, c});
        return c + 7;
    }
};

/** One set of two 64-byte ways: lines 0x0, 0x40, 0x80, ... share it,
 *  so the third distinct line evicts the least recently used one. */
const sim::CacheConfig kTwoWays{128, 2, 64, 1};

} // namespace

// ------------------------------------------------------ metadata lines

TEST(MetaLine, HitMakesNoPortCall)
{
    cache::Cache cache("meta", kTwoWays);
    RecordingPort port;
    touchMetaLine(cache, 0x40, 0, port, false);
    port.calls.clear();

    MetaAccess hit = touchMetaLine(cache, 0x40, 500, port, false);
    EXPECT_FALSE(hit.missed);
    EXPECT_FALSE(hit.wroteBack);
    EXPECT_EQ(hit.ready, 500u);
    EXPECT_TRUE(port.calls.empty());
}

TEST(MetaLine, MissReadsAtTheAccessCycle)
{
    cache::Cache cache("meta", kTwoWays);
    RecordingPort port;
    MetaAccess miss = touchMetaLine(cache, 0x40, 500, port, false);
    EXPECT_TRUE(miss.missed);
    EXPECT_FALSE(miss.wroteBack);
    EXPECT_EQ(miss.ready, 600u);
    ASSERT_EQ(port.calls.size(), 1u);
    EXPECT_EQ(port.calls[0], (RecordingPort::Call{false, 0x40, 500}));
    EXPECT_NE(cache.lookup(0x40, false), nullptr);
}

TEST(MetaLine, DirtyVictimIsWrittenAfterTheRead)
{
    cache::Cache cache("meta", kTwoWays);
    RecordingPort port;
    touchMetaLine(cache, 0x00, 0, port, true); // the LRU way, dirty
    touchMetaLine(cache, 0x40, 10, port, false);
    port.calls.clear();

    MetaAccess miss = touchMetaLine(cache, 0x80, 500, port, false);
    EXPECT_TRUE(miss.missed);
    EXPECT_TRUE(miss.wroteBack);
    EXPECT_EQ(miss.ready, 600u); // the writeback does not delay it
    const std::vector<RecordingPort::Call> want = {{false, 0x80, 500},
                                                   {true, 0x00, 600}};
    EXPECT_EQ(port.calls, want);
}

TEST(MetaLine, CleanVictimIsNotWritten)
{
    cache::Cache cache("meta", kTwoWays);
    RecordingPort port;
    touchMetaLine(cache, 0x00, 0, port, false); // the LRU way, clean
    touchMetaLine(cache, 0x40, 10, port, true);
    port.calls.clear();

    MetaAccess miss = touchMetaLine(cache, 0x80, 500, port, false);
    EXPECT_TRUE(miss.missed);
    EXPECT_FALSE(miss.wroteBack);
    ASSERT_EQ(port.calls.size(), 1u);
    EXPECT_FALSE(port.calls[0].write);
    EXPECT_EQ(cache.lookup(0x00, false), nullptr);
}

TEST(MetaLine, MakeDirtyOnAHitMarksTheLine)
{
    cache::Cache cache("meta", kTwoWays);
    RecordingPort port;
    touchMetaLine(cache, 0x00, 0, port, false);
    touchMetaLine(cache, 0x40, 10, port, false);
    // A hit that updates 0x00: no traffic now, but the line is dirty
    // and the most recently used.
    MetaAccess hit = touchMetaLine(cache, 0x00, 20, port, true);
    EXPECT_FALSE(hit.missed);
    const cache::CacheLine *line = cache.lookup(0x00, false);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->dirty);
    // Two more misses evict 0x40 (clean), then 0x00 (written back).
    touchMetaLine(cache, 0x80, 30, port, false);
    port.calls.clear();
    MetaAccess miss = touchMetaLine(cache, 0xc0, 40, port, false);
    EXPECT_TRUE(miss.wroteBack);
    const std::vector<RecordingPort::Call> want = {{false, 0xc0, 40},
                                                   {true, 0x00, 140}};
    EXPECT_EQ(port.calls, want);
}

TEST(HashTree, VerifyFreshTreeOk)
{
    sim::SimConfig cfg;
    cfg.hashTreeEnabled = true;
    cfg.protectedBytes = 1 << 20; // small region for fast tests
    ExternalMemory ext(11);
    HashTree tree(cfg, ext);

    TreeTiming t = tree.verify(0x4000, 1000, fixedMem);
    EXPECT_TRUE(t.ok);
    EXPECT_GT(t.readyAt, 1000u);
    EXPECT_GE(t.levelsHashed, 1u);
}

TEST(HashTree, UpdateThenVerifyOk)
{
    sim::SimConfig cfg;
    cfg.hashTreeEnabled = true;
    cfg.protectedBytes = 1 << 20;
    ExternalMemory ext(12);
    HashTree tree(cfg, ext);

    std::uint8_t data[kExtLineBytes] = {9};
    ext.storeLine(0x4000, data); // counter 0 -> 1
    TreeTiming up = tree.update(0x4000, 0, fixedMem);
    EXPECT_GT(up.readyAt, 0u);

    TreeTiming v = tree.verify(0x4000, 0, fixedMem);
    EXPECT_TRUE(v.ok);
}

TEST(HashTree, StaleCounterDetected)
{
    // A counter bump without a tree update == replayed counter value.
    sim::SimConfig cfg;
    cfg.hashTreeEnabled = true;
    cfg.protectedBytes = 1 << 20;
    ExternalMemory ext(13);
    HashTree tree(cfg, ext);

    std::uint8_t data[kExtLineBytes] = {1};
    ext.storeLine(0x8000, data);
    // No tree.update: the tree still holds the all-zero default.
    TreeTiming v = tree.verify(0x8000, 0, fixedMem);
    EXPECT_FALSE(v.ok);
}

TEST(HashTree, CachedNodeShortensWalk)
{
    sim::SimConfig cfg;
    cfg.hashTreeEnabled = true;
    cfg.protectedBytes = 1 << 20;
    ExternalMemory ext(14);
    HashTree tree(cfg, ext);

    TreeTiming cold = tree.verify(0x4000, 0, fixedMem);
    TreeTiming warm = tree.verify(0x4000, 0, fixedMem);
    EXPECT_GT(cold.nodeFetches, warm.nodeFetches);
    EXPECT_LE(warm.levelsHashed, cold.levelsHashed);
    EXPECT_LT(warm.readyAt - 0, cold.readyAt - 0);
}

TEST(HashTree, LevelsMatchRegionSize)
{
    sim::SimConfig cfg;
    cfg.hashTreeEnabled = true;
    cfg.protectedBytes = 1 << 20; // 16K lines -> 2048 groups
    ExternalMemory ext(15);
    HashTree tree(cfg, ext);
    // 2048 leaf groups, arity 8: levels = 1 + ceil(log8(2048)) walk
    // levels; 8^4 = 4096 >= 2048 so 4 levels of nodes.
    EXPECT_EQ(tree.levels(), 4u);
}

// Pins today's walk, which differs from the paper (DESIGN.md): a cold
// verify fetches each stored level but the topmost, which it looks up
// and never fetches, and still hashes all four levels. A fix to the
// model changes this test on purpose.
TEST(HashTree, ColdWalkFetchesAllButTheTopLevel)
{
    sim::SimConfig cfg;
    cfg.hashTreeEnabled = true;
    cfg.protectedBytes = 1 << 20;
    ExternalMemory ext(16);
    HashTree tree(cfg, ext);
    ASSERT_EQ(tree.levels(), 4u);

    CountingPort counting;
    TreeTiming cold = tree.verify(0x4000, 0, counting);
    EXPECT_EQ(cold.nodeFetches, 3u);
    EXPECT_EQ(counting.fetches, 3);
    EXPECT_EQ(cold.levelsHashed, 4u);
    EXPECT_EQ(cold.readyAt, 100 + 4 * Cycle(kTreeHashLatency));
}

// Every metadata region comes from one layout above memoryBytes:
// counters, MACs, tree nodes, then the remap table. A tree over a
// region smaller than the memory sizes its node count by the region
// but still sits between the MACs and the remap table.
TEST(MetaLayout, ASmallRegionsTreeSitsBetweenTheMacsAndTheRemapTable)
{
    sim::SimConfig cfg;
    cfg.hashTreeEnabled = true;
    cfg.memoryBytes = 64ULL << 20;
    cfg.protectedBytes = 1 << 20;
    ExternalMemory ext(17);
    HashTree tree(cfg, ext);
    ASSERT_EQ(tree.levels(), 4u);

    const MetaLayout layout(cfg.memoryBytes);
    const Addr counter_bytes =
        cfg.memoryBytes / kExtLineBytes * kCounterBytes;
    EXPECT_EQ(layout.counterBase, cfg.memoryBytes);
    EXPECT_EQ(layout.counterLine(cfg.memoryBytes - kExtLineBytes),
              layout.macBase - kExtLineBytes);
    const Addr mac_end = layout.macBase + counter_bytes;

    std::uint64_t nodes =
        cfg.protectedBytes / kExtLineBytes / HashTree::kArity;
    for (unsigned level = 1; level <= tree.levels(); ++level) {
        EXPECT_GE(tree.nodeAddr(level, 0), mac_end) << "level " << level;
        EXPECT_LE(tree.nodeAddr(level, nodes - 1) + kExtLineBytes,
                  layout.remapBase)
            << "level " << level;
        nodes = (nodes + HashTree::kArity - 1) / HashTree::kArity;
    }
    EXPECT_EQ(nodes, 1u); // the on-chip root

    // A cold walk of the region's last line fetches inside the tree
    // region too.
    RecordingPort port;
    tree.verify(cfg.protectedBytes - kExtLineBytes, 0, port);
    ASSERT_EQ(port.calls.size(), 3u);
    for (const RecordingPort::Call &call : port.calls) {
        EXPECT_GE(call.addr, mac_end);
        EXPECT_LT(call.addr, layout.remapBase);
    }
}

// ----------------------------------------------------------------- remap

TEST(Remap, TranslateIsStableUntilShuffle)
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 1 << 20;
    RemapLayer remap(cfg);

    RemapResult a = remap.translate(0x4000, 0, fixedMem);
    RemapResult b = remap.translate(0x4000, 1000, fixedMem);
    EXPECT_EQ(a.physAddr, b.physAddr);

    RemapResult shuffled = remap.shuffle(0x4000, 2000, fixedMem);
    RemapResult after = remap.translate(0x4000, 3000, fixedMem);
    EXPECT_EQ(after.physAddr, shuffled.physAddr);
}

TEST(Remap, ShuffleChangesLocation)
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 1 << 26;
    RemapLayer remap(cfg);

    // With a 2^20-line space, repeated shuffles virtually never repeat.
    Addr prev = remap.translate(0x4000, 0, fixedMem).physAddr;
    int changed = 0;
    for (int i = 0; i < 16; ++i) {
        Addr next = remap.shuffle(0x4000, 0, fixedMem).physAddr;
        if (next != prev)
            ++changed;
        prev = next;
    }
    EXPECT_GE(changed, 15);
}

TEST(Remap, PhysAddrLineAlignedAndInRange)
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 1 << 22;
    RemapLayer remap(cfg);
    for (int i = 0; i < 100; ++i) {
        Addr phys = remap.shuffle(Addr(i) * 64, 0, fixedMem).physAddr;
        EXPECT_EQ(phys % kExtLineBytes, 0u);
        EXPECT_LT(phys, cfg.memoryBytes);
    }
}

TEST(Remap, CacheMissFetchesEntry)
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 1 << 26;
    cfg.remapCache.sizeBytes = 1024; // tiny: force misses
    RemapLayer remap(cfg);

    CountingPort counting;
    // Touch many distinct entry lines (16 entries per 64B line).
    for (int i = 0; i < 64; ++i)
        remap.translate(Addr(i) * 64 * 16, 0, counting);
    EXPECT_GT(counting.fetches, 40);

    // Re-touching the most recent entries should hit.
    counting.fetches = 0;
    remap.translate(Addr(63) * 64 * 16, 0, counting);
    EXPECT_EQ(counting.fetches, 0);
}

TEST(AuthEngine, LastArrivedByExcludesOutstanding)
{
    AuthEngine eng(148, 40);
    // Request posted at fetch initiation with arrival at cycle 1000.
    AuthSeq a = eng.post(1000, 0, true);
    EXPECT_EQ(eng.lastRequest(), a);
    // Before the data arrives, the queue is architecturally empty.
    EXPECT_EQ(eng.lastArrivedBy(500, 0), kNoAuthSeq);
    EXPECT_EQ(eng.lastArrivedBy(999, 0), kNoAuthSeq);
    // From the arrival cycle on, the request is visible.
    EXPECT_EQ(eng.lastArrivedBy(1000, 0), a);
    EXPECT_EQ(eng.lastArrivedBy(5000, 0), a);
}

TEST(AuthEngine, LastArrivedByOrdersMultiple)
{
    AuthEngine eng(148, 40);
    AuthSeq a = eng.post(100, 0, true);
    AuthSeq b = eng.post(200, 0, true);
    AuthSeq c = eng.post(300, 0, true);
    EXPECT_EQ(eng.lastArrivedBy(99, 0), kNoAuthSeq);
    EXPECT_EQ(eng.lastArrivedBy(150, 0), a);
    EXPECT_EQ(eng.lastArrivedBy(250, 0), b);
    EXPECT_EQ(eng.lastArrivedBy(300, 0), c);
}

TEST(AuthEngine, LastArrivedByMonotonicizesArrivals)
{
    AuthEngine eng(148, 40);
    // Out-of-order arrivals (bank-dependent DRAM latencies): the
    // in-order queue is still consistent — a later request's arrival
    // is clamped to at least its predecessor's.
    eng.post(500, 0, true);
    AuthSeq b = eng.post(300, 0, true); // "arrives" earlier than a
    EXPECT_EQ(eng.lastArrivedBy(400, 0), kNoAuthSeq);
    EXPECT_EQ(eng.lastArrivedBy(500, 0), b);
}

TEST(AuthEngine, LastArrivedByMatchesReferenceAcrossPrune)
{
    // The engine keeps the last kWindow requests (auth_engine.cc's
    // history window). A client whose every arrival at or before the
    // queried cycle has been pruned reads its most recently pruned
    // request. Check every answer, in a random query order, against a
    // model that keeps every arrival. Client 1 sleeps through the
    // middle third, neither posting nor asking, while client 0's posts
    // prune every request it made from under its cursor.
    constexpr AuthSeq kWindow = 1 << 16;
    constexpr unsigned kPosts = 200'000;
    static_assert(kPosts / 3 > kWindow);
    struct History
    {
        std::vector<Cycle> arrivals; // running max, as the engine keeps
        std::vector<AuthSeq> seqs;
    };
    // Fully pipelined, so the queue keeps up with a post every 1.5
    // cycles on average.
    AuthEngine eng(148, 1, 2);
    History model[2];
    Rng rng(0xa11ce);
    Cycle now = 0;
    AuthSeq last = kNoAuthSeq;
    unsigned mismatches = 0, fallbacks = 0;
    for (unsigned i = 0; i < kPosts; ++i) {
        now += rng.below(4);
        const bool asleep = i >= kPosts / 3 && i < 2 * kPosts / 3;
        const unsigned client = !asleep && rng.below(3) == 0 ? 1 : 0;
        const Cycle ready = now + rng.below(400); // out of order
        last = eng.post(ready, 0, true, client);
        History &h = model[client];
        h.arrivals.push_back(h.arrivals.empty()
                                 ? ready
                                 : std::max(ready, h.arrivals.back()));
        h.seqs.push_back(last);

        const AuthSeq oldest = last > kWindow ? last - kWindow + 1 : 1;
        for (unsigned q = 0; q < 2; ++q) {
            const unsigned c = asleep ? 0 : unsigned(rng.below(2));
            // Mostly near the present, in both directions; now and then
            // anywhere in the past, often before the window. (A far
            // query walks the cursor across the window and back, so it
            // stays rare.)
            const Cycle at = rng.below(256) == 0
                                 ? rng.below(now + 1)
                                 : now + rng.below(400) -
                                       std::min<Cycle>(now, 200);
            const History &m = model[c];
            const std::size_t arrived = std::size_t(
                std::upper_bound(m.arrivals.begin(), m.arrivals.end(), at) -
                m.arrivals.begin());
            const std::size_t pruned = std::size_t(
                std::lower_bound(m.seqs.begin(), m.seqs.end(), oldest) -
                m.seqs.begin());
            const std::size_t n = std::max(arrived, pruned);
            const AuthSeq want = n == 0 ? kNoAuthSeq : m.seqs[n - 1];
            if (arrived < pruned)
                ++fallbacks;
            const AuthSeq got = eng.lastArrivedBy(at, c);
            if (got != want && ++mismatches <= 5)
                ADD_FAILURE() << "post " << i << " client " << c
                              << " cycle " << at << ": got " << got
                              << ", want " << want;
        }
    }
    EXPECT_EQ(mismatches, 0u);
    // The run reached the pruned fallback, and the model's window is
    // the engine's: the oldest kept request has a completion cycle.
    EXPECT_GT(fallbacks, 100u);
    EXPECT_EQ(eng.doneCycle(last - kWindow), 0u);
    EXPECT_NE(eng.doneCycle(last - kWindow + 1), 0u);
}

TEST(AuthEngine, DoneCycleAndVerdictMatchReferenceAcrossPrune)
{
    // doneCycle and requestFailed read the engine's last kWindow
    // requests; an older (or no) request reads as verified at cycle 0
    // and not failed, and a future one as not failed. Check both
    // against a model that keeps every request, after every post near
    // the window's edge and anywhere, and for every sequence number
    // at a few points, while the history grows to its bound and then
    // wraps. One request in 16 fails.
    constexpr AuthSeq kWindow = 1 << 16;
    constexpr unsigned kPosts = 3 * kWindow + 1000;
    // The engine keeps up: a request every 4.5 cycles on average
    // against about 3 of occupancy with the extra latency.
    constexpr unsigned kLatency = 148, kOccupancy = 2;
    AuthEngine eng(kLatency, kOccupancy, 2);
    std::vector<Cycle> done{0}; // done[seq]; seq 0 is kNoAuthSeq
    std::vector<bool> failed{false};
    Rng rng(0x5eed);
    Cycle now = 0, free_at = 0;
    unsigned mismatches = 0, failures_kept = 0;
    auto check = [&](AuthSeq seq, AuthSeq last, unsigned post) {
        const bool kept = seq != kNoAuthSeq && seq <= last &&
                          seq + kWindow > last;
        const Cycle want_done = kept ? done[seq] : 0;
        const bool want_failed = kept && failed[seq];
        failures_kept += want_failed;
        const bool got_failed = eng.requestFailed(seq);
        const Cycle got_done = seq <= last ? eng.doneCycle(seq) : 0;
        if ((got_done != want_done || got_failed != want_failed) &&
            ++mismatches <= 5)
            ADD_FAILURE() << "post " << post << " seq " << seq
                          << " (last " << last << "): done " << got_done
                          << "/" << want_done << ", failed "
                          << got_failed << "/" << want_failed;
    };
    for (unsigned i = 0; i < kPosts; ++i) {
        now += 1 + rng.below(8);
        const Cycle ready = now + rng.below(400);
        const Cycle extra = rng.below(16) == 0 ? rng.below(32) : 0;
        const bool mac_ok = rng.below(16) != 0;
        const Cycle start = std::max(ready, free_at);
        free_at = start + kOccupancy + extra;
        done.push_back(start + kLatency + extra);
        failed.push_back(!mac_ok);
        const AuthSeq last =
            eng.post(ready, extra, mac_ok, unsigned(rng.below(2)));
        ASSERT_EQ(last, done.size() - 1);

        const AuthSeq oldest = last > kWindow ? last - kWindow + 1 : 1;
        check(AuthSeq(rng.below(last + 1)), last, i);
        check(oldest + rng.below(4) - std::min<AuthSeq>(oldest, 2), last,
              i);
        check(last + 1 + rng.below(3), last, i);
        if (i % kWindow == kWindow / 2 || i + 1 == kPosts)
            for (AuthSeq seq = 0; seq <= last + 2; ++seq)
                check(seq, last, i);
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(failures_kept, 10000u);
}

TEST(AuthEngine, BacklogDepthMatchesAScanAcrossPrune)
{
    // auth.queue_depth samples, at each post, how many of the engine's
    // last kWindow requests are still unfinished when the new one's
    // data arrives. Check the whole distribution against a scan back
    // over the test's own list of done cycles, while bursts of posts
    // faster than the engine's occupancy build a backlog of over a
    // thousand requests, and the history wraps past its window.
    constexpr std::size_t kWindow = 1 << 16;
    constexpr unsigned kPosts = kWindow + 40'000;
    constexpr unsigned kLatency = 148, kOccupancy = 3;
    AuthEngine eng(kLatency, kOccupancy);
    std::vector<Cycle> done;
    StatDistribution want;
    Rng rng(0xbac1);
    Cycle now = 0, free_at = 0;
    for (unsigned i = 0; i < kPosts; ++i) {
        // 2,000 posts about a cycle apart, then 2,000 about 5.5 apart:
        // the engine, one request every 3 cycles, falls behind and
        // catches up.
        now += (i / 2000) % 2 == 0 ? rng.below(3) : 4 + rng.below(4);
        const Cycle ready = now + rng.below(64);
        const std::size_t kept = std::min(done.size(), kWindow);
        std::uint64_t depth = 0;
        while (depth < kept && done[done.size() - 1 - depth] > ready)
            ++depth;
        want.sample(depth);
        const Cycle start = std::max(ready, free_at);
        free_at = start + kOccupancy;
        done.push_back(start + kLatency);
        eng.post(ready, 0, true);
    }

    struct QueueDepth final : StatVisitor
    {
        StatDistribution dist;
        void
        onDistribution(const std::string &name,
                       const StatDistribution &d) override
        {
            if (name == "auth.queue_depth")
                dist = d;
        }
    } got;
    eng.stats().visit(got);
    EXPECT_EQ(got.dist.count(), want.count());
    EXPECT_EQ(got.dist.sum(), want.sum());
    EXPECT_EQ(got.dist.min(), want.min());
    EXPECT_EQ(got.dist.max(), want.max());
    EXPECT_EQ(got.dist.buckets(), want.buckets());
    EXPECT_GT(want.max(), 1000u);
}

TEST(AuthEngine, ThroughputBoundedByInterval)
{
    AuthEngine eng(148, 40);
    // Ten back-to-back arrivals: completions spaced by the interval,
    // not by the full latency (pipelined engine).
    AuthSeq first = eng.post(0, 0, true);
    AuthSeq last = first;
    for (int i = 1; i < 10; ++i)
        last = eng.post(0, 0, true);
    EXPECT_EQ(eng.doneCycle(first), 148u);
    EXPECT_EQ(eng.doneCycle(last), 9 * 40u + 148u);
}

// ------------------------------------------------------ counter predictor

TEST(CounterPredictor, ColdRegionPredictsProvisioningCounter)
{
    CounterPredictor pred;
    // Fresh image: counters are 0 -> within the window.
    EXPECT_TRUE(pred.predictAndResolve(0x10000, 0));
    EXPECT_TRUE(pred.predictAndResolve(0x20000, 3));
    // Heavily-written line in a cold region: outside the window.
    EXPECT_FALSE(pred.predictAndResolve(0x30000, 100));
}

TEST(CounterPredictor, RegionHistoryTrains)
{
    CounterPredictor pred;
    // Writebacks in a region train its base counter.
    pred.onWriteback(0x40000, 50);
    EXPECT_TRUE(pred.predictAndResolve(0x40040, 52)); // same region
    EXPECT_FALSE(pred.predictAndResolve(0x41000, 52)); // next region
}

TEST(CounterPredictor, MispredictionRetrains)
{
    CounterPredictor pred;
    EXPECT_FALSE(pred.predictAndResolve(0x50000, 40));
    // The true counter retrained the region: neighbours now hit.
    EXPECT_TRUE(pred.predictAndResolve(0x50040, 41));
}

TEST(CounterPredictor, HitRateTracksOutcomes)
{
    CounterPredictor pred;
    pred.predictAndResolve(0x0, 0);    // hit
    pred.predictAndResolve(0x1000, 9); // miss
    EXPECT_DOUBLE_EQ(pred.hitRate(), 0.5);
}

TEST(CounterPredictor, StaleBaseWithinWindowStillHits)
{
    CounterPredictor pred;
    pred.onWriteback(0x60000, 10);
    // Line written 3 more times since training: still inside window.
    EXPECT_TRUE(pred.predictAndResolve(0x60000, 13));
    // 4 or more: miss.
    pred.onWriteback(0x60000, 10);
    EXPECT_FALSE(pred.predictAndResolve(0x60000, 14));
}
