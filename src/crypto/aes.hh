/**
 * @file
 * FIPS-197 AES-128 block encryption of single 16-byte blocks: the
 * functional model of the Rijndael engine that generates the secure
 * processor's counter-mode pads (encryption is all counter mode ever
 * runs). Timing is modeled separately (Section 5.2.1 of the paper uses
 * an 80 ns reference latency for the unrolled/pipelined hardware
 * implementation).
 */

#ifndef ACP_CRYPTO_AES_HH
#define ACP_CRYPTO_AES_HH

#include <array>
#include <cstdint>
#include <cstddef>

namespace acp::crypto
{

/** AES block size in bytes. */
constexpr std::size_t kAesBlockBytes = 16;

/**
 * AES-128 cipher context holding an expanded key schedule.
 * Construct once per key; encryptBlock is const and thread-compatible.
 */
class Aes
{
  public:
    /** Expand @p key of @p key_bytes length; anything but 16 bytes
     *  triggers acp_fatal. */
    Aes(const std::uint8_t *key, std::size_t key_bytes);

    /** Convenience constructor from a fixed-size array. */
    explicit Aes(const std::array<std::uint8_t, 16> &key)
        : Aes(key.data(), key.size())
    {}

    /** Encrypt one 16-byte block, in-place allowed (in == out ok). */
    void encryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const;

  private:
    static constexpr unsigned kRounds = 10;
    /** Round keys, 4 words per round plus the initial whitening key. */
    std::array<std::uint32_t, 4 * (kRounds + 1)> roundKeys_;
};

} // namespace acp::crypto

#endif // ACP_CRYPTO_AES_HH
