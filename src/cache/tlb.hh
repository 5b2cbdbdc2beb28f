/**
 * @file
 * Simple set-associative TLB timing model. The simulated machine uses
 * an identity virtual-to-physical mapping (a flat embedded-style
 * address space, which Section 3.3 notes makes fetch-address exploits
 * directly applicable); the TLB contributes timing and records
 * translation faults for out-of-range addresses.
 */

#ifndef ACP_CACHE_TLB_HH
#define ACP_CACHE_TLB_HH

#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace acp::cache
{

/** Set-associative TLB of page numbers, LRU replaced. */
class Tlb
{
  public:
    Tlb(std::string name, unsigned entries, unsigned assoc,
        unsigned page_bytes, unsigned miss_penalty);

    /**
     * Translate (identity) and return the added latency: 0 on hit,
     * missPenalty on miss (page-walk charge). Inserts on miss.
     */
    unsigned access(Addr vaddr);

    /** Count @p n more hits on the entry the last access touched,
     *  without stamping it again: repeated hits on one entry with
     *  nothing in between leave the LRU order as one hit does. */
    void countHits(std::uint64_t n) { hits_ += n; }

    StatGroup &stats() { return stats_; }
    std::uint64_t hitCount() const { return hits_.value(); }
    std::uint64_t missCount() const { return misses_.value(); }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t vpn = 0;
        std::uint64_t lru = 0;
    };

    unsigned assoc_;
    unsigned pageShift_;
    unsigned missPenalty_;
    std::uint64_t numSets_;
    std::uint64_t lruClock_ = 0;
    std::vector<Entry> entries_;

    StatGroup stats_;
    StatCounter hits_;
    StatCounter misses_;
};

} // namespace acp::cache

#endif // ACP_CACHE_TLB_HH
