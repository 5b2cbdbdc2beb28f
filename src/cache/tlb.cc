#include "cache/tlb.hh"

#include "common/logging.hh"

namespace acp::cache
{

Tlb::Tlb(std::string name, unsigned entries, unsigned assoc,
         unsigned page_bytes, unsigned miss_penalty)
    : assoc_(assoc), pageShift_(floorLog2(page_bytes)),
      missPenalty_(miss_penalty), stats_(std::move(name))
{
    if (entries % assoc != 0)
        acp_fatal("TLB entries %u not divisible by assoc %u", entries,
                  assoc);
    numSets_ = entries / assoc;
    if (!isPowerOfTwo(numSets_))
        acp_fatal("TLB set count must be a power of two");
    entries_.resize(entries);
    stats_.addCounter("hits", &hits_);
    stats_.addCounter("misses", &misses_);
}

unsigned
Tlb::access(Addr vaddr)
{
    std::uint64_t vpn = vaddr >> pageShift_;
    std::uint64_t set = vpn & (numSets_ - 1);
    Entry *base = &entries_[set * assoc_];

    for (unsigned way = 0; way < assoc_; ++way) {
        if (base[way].valid && base[way].vpn == vpn) {
            ++hits_;
            base[way].lru = ++lruClock_;
            return 0;
        }
    }

    ++misses_;
    Entry *victim = &base[0];
    for (unsigned way = 0; way < assoc_; ++way) {
        if (!base[way].valid) {
            victim = &base[way];
            break;
        }
        if (base[way].lru < victim->lru)
            victim = &base[way];
    }
    victim->valid = true;
    victim->vpn = vpn;
    victim->lru = ++lruClock_;
    return missPenalty_;
}

} // namespace acp::cache
