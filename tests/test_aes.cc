/**
 * @file
 * AES-128 encryption tests against the FIPS-197 and SP 800-38A
 * known-answer vectors, plus a diffusion property test.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "common/rng.hh"
#include "crypto/aes.hh"

using namespace acp;
using namespace acp::crypto;

namespace
{

std::array<std::uint8_t, 16>
hex16(const char *hex)
{
    std::array<std::uint8_t, 16> out{};
    for (int i = 0; i < 16; ++i) {
        unsigned v;
        std::sscanf(hex + 2 * i, "%2x", &v);
        out[i] = std::uint8_t(v);
    }
    return out;
}

} // namespace

// FIPS-197 Appendix C.1: AES-128
TEST(Aes, Fips197Aes128)
{
    std::uint8_t key[16], pt[16];
    for (int i = 0; i < 16; ++i) {
        key[i] = std::uint8_t(i);
        pt[i] = std::uint8_t(i * 0x11);
    }
    Aes aes(key, sizeof(key));
    std::uint8_t ct[16];
    aes.encryptBlock(pt, ct);
    auto expect = hex16("69c4e0d86a7b0430d8cdb78070b4c55a");
    EXPECT_EQ(0, std::memcmp(ct, expect.data(), 16));
}

// NIST SP 800-38A F.1.1 ECB-AES128 first block
TEST(Aes, Sp80038aEcbAes128)
{
    auto key = hex16("2b7e151628aed2a6abf7158809cf4f3c");
    auto pt = hex16("6bc1bee22e409f96e93d7e117393172a");
    auto expect = hex16("3ad77bb40d7a3660a89ecaf32466ef97");
    Aes aes(key);
    std::uint8_t ct[16];
    aes.encryptBlock(pt.data(), ct);
    EXPECT_EQ(0, std::memcmp(ct, expect.data(), 16));
}

TEST(Aes, InPlaceEncrypt)
{
    auto key = hex16("2b7e151628aed2a6abf7158809cf4f3c");
    auto buf = hex16("6bc1bee22e409f96e93d7e117393172a");
    auto expect = hex16("3ad77bb40d7a3660a89ecaf32466ef97");
    Aes aes(key);
    aes.encryptBlock(buf.data(), buf.data());
    EXPECT_EQ(0, std::memcmp(buf.data(), expect.data(), 16));
}

/** Property: single-bit plaintext changes diffuse over the block. */
TEST(Aes, AvalancheProperty)
{
    Rng rng(7);
    std::uint8_t key[16];
    for (auto &byte : key)
        byte = std::uint8_t(rng.next());
    Aes aes(key, sizeof(key));

    for (int trial = 0; trial < 50; ++trial) {
        std::uint8_t pt[16], ct1[16], ct2[16];
        for (auto &byte : pt)
            byte = std::uint8_t(rng.next());
        aes.encryptBlock(pt, ct1);
        pt[rng.below(16)] ^= std::uint8_t(1 << rng.below(8));
        aes.encryptBlock(pt, ct2);

        int diff_bits = 0;
        for (int i = 0; i < 16; ++i)
            diff_bits += __builtin_popcount(ct1[i] ^ ct2[i]);
        // Expect roughly half of 128 bits to flip; allow a wide margin.
        EXPECT_GT(diff_bits, 30);
        EXPECT_LT(diff_bits, 98);
    }
}

/** Only AES-128 is built: any other key length is fatal. */
TEST(Aes, RejectsOtherKeyLengths)
{
    std::uint8_t key[32] = {};
    EXPECT_DEATH({ Aes aes(key, 24); }, "AES key length must be 16 bytes");
    EXPECT_DEATH({ Aes aes(key, 32); }, "got 32");
}
