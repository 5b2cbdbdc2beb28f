/**
 * @file
 * Functional model of the untrusted external RAM. Each 64-byte line
 * has a per-line write counter. Its ciphertext is the plaintext
 * counter-mode encrypted under (address, counter), and its MAC a
 * 64-bit truncated HMAC over (address, counter, plaintext).
 *
 * A line is kept as plaintext until the adversary reads or writes its
 * ciphertext. The first tamper() or readCiphertext() on it *seals* it:
 * the real CtrModeEngine and LineMac turn the plaintext into the same
 * ciphertext and MAC that an eager encrypt-on-write memory would hold.
 * A fetch of a sealed line really decrypts and verifies it; a fetch
 * of an unsealed line returns the plaintext with macOk, which is what
 * decrypting and verifying the line's own encryption gives. A store
 * or provisioning write replaces the line with plaintext again. The
 * simulator's timing never depends on this: it comes from the
 * configured decrypt and authentication latencies.
 *
 * The adversary's physical access is modeled by tamper(): XORing a
 * mask into stored ciphertext, exactly the bit-flipping capability the
 * paper's exploits assume (Section 3.1).
 *
 * Lines are kept 64 to a 4 KiB page in a SparsePages store, each page
 * an array of line records (bytes, counter, MAC, seal bit) and a
 * bitmap of the lines materialized so far. A page is zero-filled on
 * first touch, which is what a never-written line reads as.
 */

#ifndef ACP_SECMEM_EXTERNAL_MEMORY_HH
#define ACP_SECMEM_EXTERNAL_MEMORY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/sparse_pages.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/line_mac.hh"

namespace acp::secmem
{

/** Result of fetching and decrypting one line. */
struct FetchedLine
{
    std::array<std::uint8_t, kExtLineBytes> plain;
    std::uint64_t counter = 0;
    /** MAC verification outcome over the decrypted plaintext. */
    bool macOk = true;
};

/** Ciphertext RAM with lazy line materialization and lazy sealing. */
class ExternalMemory
{
  public:
    /** Keys for encryption and MAC are derived from @p master_seed. */
    explicit ExternalMemory(std::uint64_t master_seed);

    /** Fetch, decrypt and MAC-check the line holding @p line_addr
     *  (a real decrypt and MAC only if the line is sealed). */
    FetchedLine fetchLine(Addr line_addr);

    /**
     * Store a plaintext line (writeback path): bumps the counter, so
     * the line's encryption uses a fresh pad and its MAC the new
     * counter. Unseals the line.
     */
    void storeLine(Addr line_addr, const std::uint8_t *plain);

    /**
     * Trusted provisioning write (program loading / secure installer)
     * of @p len plaintext bytes at byte address @p addr (may span
     * lines): each touched line's plaintext takes the bytes, a sealed
     * line is decrypted first, and every line is left unsealed. Unlike
     * storeLine it keeps the counter and counts nothing.
     */
    void provision(Addr addr, const std::uint8_t *bytes, std::size_t len);

    /** Current counter value of a line (0 if never written). */
    std::uint64_t counterOf(Addr line_addr) const;

    /** Adversary: XOR @p mask_len bytes of mask into stored ciphertext
     *  starting at byte address @p addr (may span lines). Seals every
     *  line it touches. */
    void tamper(Addr addr, const std::uint8_t *mask, std::size_t mask_len);

    /** Adversary: read raw ciphertext bytes (eavesdropping). Seals
     *  every line it touches. */
    std::vector<std::uint8_t> readCiphertext(Addr addr, std::size_t len);

    /** Number of distinct lines materialized (footprint measure). */
    std::size_t linesTouched() const { return linesTouched_; }

    StatGroup &stats() { return stats_; }

  private:
    struct LineRec
    {
        /** Plaintext, or ciphertext once the line is sealed. */
        std::array<std::uint8_t, kExtLineBytes> bytes{};
        std::uint64_t counter = 0;
        /** Stored MAC; meaningful only while sealed. */
        std::uint64_t mac = 0;
        bool sealed = false;
    };

    static constexpr unsigned kLinesPerPage =
        unsigned(kSparsePageBytes / kExtLineBytes);
    static_assert(kLinesPerPage == 64, "one touched bit per line");

    struct Page
    {
        std::array<LineRec, kLinesPerPage> lines{};
        /** Bit i set once line i has been materialized. */
        std::uint64_t touched = 0;
    };

    /** The record of the line holding byte address @p addr, marked
     *  touched. */
    LineRec &materialize(Addr addr);
    /** Materialize and seal the line holding byte address @p addr. */
    LineRec &sealedLine(Addr addr);
    static Addr align(Addr a) { return a & ~Addr(kExtLineBytes - 1); }
    static unsigned
    lineIndex(Addr a)
    {
        return unsigned(SparsePages<Page>::offset(a) / kExtLineBytes);
    }

    crypto::CtrModeEngine ctr_;
    crypto::LineMac mac_;
    SparsePages<Page> pages_;
    std::size_t linesTouched_ = 0;

    StatGroup stats_;
    StatCounter fetches_;
    StatCounter stores_;
    StatCounter macFailures_;
    StatCounter tamperEvents_;
};

} // namespace acp::secmem

#endif // ACP_SECMEM_EXTERNAL_MEMORY_HH
