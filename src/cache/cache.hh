/**
 * @file
 * Generic set-associative, write-back, write-allocate cache with true
 * LRU replacement and per-line data storage. Used for the L1I/L1D/L2
 * caches and (tag-mostly) for the counter cache, hash-tree node cache
 * and remap cache.
 *
 * On-chip caches are inside the secure processor's trust boundary, so
 * lines hold *plaintext*; encryption/decryption happens at the L2/
 * external-memory boundary in the secure memory controller.
 */

#ifndef ACP_CACHE_CACHE_HH
#define ACP_CACHE_CACHE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/config.hh"

namespace acp::cache
{

/** One cache line: tags, payload and secure-fill metadata. */
struct CacheLine
{
    bool valid = false;
    bool dirty = false;
    std::uint64_t tag = 0;
    /** LRU stamp (global monotonic counter; larger = more recent). */
    std::uint64_t lru = 0;
    /** Cycle at which fill data becomes usable by consumers. */
    Cycle usableAt = 0;
    /** Cycle at which the decrypted fill data was physically present
     *  on-chip — under authen-then-issue this can be earlier than
     *  usableAt (verification still pending); observability uses the
     *  gap to attribute stall cycles to authentication rather than
     *  memory latency. */
    Cycle dataReadyAt = 0;
    /** Pending authentication request covering the fill (0 = none). */
    AuthSeq authSeq = 0;
    /** Line payload (plaintext), sized to the line size by the line's
     *  first fill. The line keeps this buffer for every later fill. */
    std::vector<std::uint8_t> data;
};

/** Eviction notice returned by allocate() and invalidate(). */
struct Eviction
{
    bool valid = false;
    bool dirty = false;
    Addr addr = 0;
    /** A copy of the victim's bytes (the first lineBytes() of it): a
     *  fixed array, so handing a victim out moves no heap block. */
    std::array<std::uint8_t, kExtLineBytes> data{};
};

/** Set-associative cache. */
class Cache
{
  public:
    Cache(std::string name, const sim::CacheConfig &cfg);

    unsigned lineBytes() const { return cfg_.lineBytes; }
    unsigned hitLatency() const { return cfg_.hitLatency; }
    std::uint64_t numSets() const { return numSets_; }

    /** Line-align an address. */
    Addr lineAlign(Addr a) const { return a & ~Addr(cfg_.lineBytes - 1); }

    /**
     * Probe for @p addr. Returns the line or nullptr.
     * @param touch update LRU and hit/miss statistics
     */
    CacheLine *lookup(Addr addr, bool touch = true);

    /** Count @p n more hits on the line the last lookup touched,
     *  without stamping it again: repeated hits on one line with
     *  nothing in between leave the LRU order as one hit does. */
    void countHits(std::uint64_t n) { hits_ += n; }

    /**
     * Allocate a line for @p addr, evicting the LRU way if needed.
     * The returned line is valid with fresh tag and zeroed metadata;
     * caller fills data/usableAt/authSeq. @p evicted receives the
     * victim (a copy of its data) so the caller can write it back;
     * every victim counts as an eviction, and a dirty one as a
     * writeback.
     */
    CacheLine *allocate(Addr addr, Eviction &evicted);

    /** Invalidate the line holding @p addr if present; returns a copy
     *  of its contents through @p evicted (for dirty merge). */
    bool invalidate(Addr addr, Eviction &evicted);

    /** Iterate every valid line with its address. */
    template <typename Fn>
    void
    forEachLineAddr(Fn &&fn)
    {
        for (std::uint64_t set = 0; set < numSets_; ++set) {
            for (unsigned way = 0; way < cfg_.assoc; ++way) {
                CacheLine &line = lines_[set * cfg_.assoc + way];
                if (line.valid)
                    fn(addrOf(line, set), line);
            }
        }
    }

    StatGroup &stats() { return stats_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

  private:
    std::uint64_t setIndex(Addr addr) const;
    std::uint64_t tagOf(Addr addr) const;
    Addr addrOf(const CacheLine &line, std::uint64_t set) const;

    sim::CacheConfig cfg_;
    std::uint64_t numSets_;
    unsigned lineShift_;
    std::uint64_t lruClock_ = 0;
    std::vector<CacheLine> lines_; // numSets_ * assoc, row-major by set

    StatGroup stats_;
    StatCounter hits_;
    StatCounter misses_;
    StatCounter evictions_;
    StatCounter writebacks_;
};

} // namespace acp::cache

#endif // ACP_CACHE_CACHE_HH
