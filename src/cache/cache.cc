#include "cache/cache.hh"

#include <cstring>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace acp::cache
{

Cache::Cache(std::string name, const sim::CacheConfig &cfg)
    : cfg_(cfg), stats_(std::move(name))
{
    if (!isPowerOfTwo(cfg.lineBytes))
        acp_fatal("%s: line size %u not a power of two",
                  stats_.name().c_str(), cfg.lineBytes);
    if (cfg.lineBytes > kExtLineBytes)
        acp_fatal("%s: line size %u exceeds the %u-byte external line",
                  stats_.name().c_str(), cfg.lineBytes, kExtLineBytes);
    if (cfg.sizeBytes % (std::uint64_t(cfg.lineBytes) * cfg.assoc) != 0)
        acp_fatal("%s: size %llu not divisible by assoc*line",
                  stats_.name().c_str(),
                  (unsigned long long)cfg.sizeBytes);

    numSets_ = cfg.sizeBytes / (std::uint64_t(cfg.lineBytes) * cfg.assoc);
    if (!isPowerOfTwo(numSets_))
        acp_fatal("%s: set count %llu not a power of two",
                  stats_.name().c_str(), (unsigned long long)numSets_);
    lineShift_ = floorLog2(cfg.lineBytes);
    lines_.resize(numSets_ * cfg.assoc);

    stats_.addCounter("hits", &hits_);
    stats_.addCounter("misses", &misses_);
    stats_.addCounter("evictions", &evictions_);
    stats_.addCounter("writebacks", &writebacks_);
}

std::uint64_t
Cache::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (numSets_ - 1);
}

std::uint64_t
Cache::tagOf(Addr addr) const
{
    return (addr >> lineShift_) / numSets_;
}

Addr
Cache::addrOf(const CacheLine &line, std::uint64_t set) const
{
    return ((line.tag * numSets_ + set) << lineShift_);
}

CacheLine *
Cache::lookup(Addr addr, bool touch)
{
    std::uint64_t set = setIndex(addr);
    std::uint64_t tag = tagOf(addr);
    CacheLine *base = &lines_[set * cfg_.assoc];
    for (unsigned way = 0; way < cfg_.assoc; ++way) {
        CacheLine &line = base[way];
        if (line.valid && line.tag == tag) {
            if (touch) {
                ++hits_;
                line.lru = ++lruClock_;
            }
            return &line;
        }
    }
    if (touch)
        ++misses_;
    return nullptr;
}

CacheLine *
Cache::allocate(Addr addr, Eviction &evicted)
{
    std::uint64_t set = setIndex(addr);
    std::uint64_t tag = tagOf(addr);
    CacheLine *base = &lines_[set * cfg_.assoc];

    // Prefer an invalid way; otherwise evict true-LRU.
    CacheLine *victim = &base[0];
    for (unsigned way = 0; way < cfg_.assoc; ++way) {
        CacheLine &line = base[way];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lru < victim->lru)
            victim = &line;
    }

    evicted.valid = victim->valid;
    evicted.dirty = victim->valid && victim->dirty;
    if (victim->valid) {
        evicted.addr = addrOf(*victim, set);
        std::memcpy(evicted.data.data(), victim->data.data(),
                    cfg_.lineBytes);
        ++evictions_;
        if (victim->dirty)
            ++writebacks_;
    }

    victim->valid = true;
    victim->dirty = false;
    victim->tag = tag;
    victim->lru = ++lruClock_;
    victim->usableAt = 0;
    victim->dataReadyAt = 0;
    victim->authSeq = kNoAuthSeq;
    victim->data.assign(cfg_.lineBytes, 0);
    return victim;
}

bool
Cache::invalidate(Addr addr, Eviction &evicted)
{
    std::uint64_t set = setIndex(addr);
    std::uint64_t tag = tagOf(addr);
    CacheLine *base = &lines_[set * cfg_.assoc];
    for (unsigned way = 0; way < cfg_.assoc; ++way) {
        CacheLine &line = base[way];
        if (line.valid && line.tag == tag) {
            evicted.valid = true;
            evicted.dirty = line.dirty;
            evicted.addr = addrOf(line, set);
            std::memcpy(evicted.data.data(), line.data.data(),
                        cfg_.lineBytes);
            line.valid = false;
            line.dirty = false;
            return true;
        }
    }
    evicted.valid = false;
    return false;
}

} // namespace acp::cache
