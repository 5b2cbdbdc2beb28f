#include "secmem/remap.hh"

#include "secmem/external_memory.hh"

namespace acp::secmem
{

RemapLayer::RemapLayer(const sim::SimConfig &cfg)
    : remapCache_("remap_cache", cfg.remapCache),
      rng_(cfg.rngSeed ^ 0x5eed5eed5eed5eedULL), stats_("remap")
{
    physLines_ = cfg.memoryBytes / kExtLineBytes;
    // Remap table lives in its own external region (timing only).
    tableBase_ = cfg.memoryBytes + cfg.memoryBytes / 2;

    stats_.addCounter("translates", &translates_);
    stats_.addCounter("shuffles", &shuffles_);
    stats_.addCounter("entry_fetches", &entryFetches_);
    stats_.addCounter("entry_writebacks", &entryWritebacks_);
}

Addr
RemapLayer::entryLineAddr(Addr line_addr) const
{
    std::uint64_t line_index = line_addr / kExtLineBytes;
    Addr entry_addr = tableBase_ + line_index * kRemapEntryBytes;
    return entry_addr & ~Addr(kExtLineBytes - 1);
}

Cycle
RemapLayer::touchEntry(Addr line_addr, Cycle cycle,
                       const MetaMemPort &mem, bool make_dirty)
{
    MetaAccess entry = touchMetaLine(remapCache_, entryLineAddr(line_addr),
                                     cycle, mem, make_dirty);
    if (entry.missed)
        ++entryFetches_;
    if (entry.wroteBack)
        ++entryWritebacks_;
    return entry.ready;
}

RemapResult
RemapLayer::translate(Addr line_addr, Cycle cycle,
                      const MetaMemPort &mem)
{
    ++translates_;
    RemapResult res;
    res.readyAt = touchEntry(line_addr, cycle, mem, false);
    auto it = map_.find(line_addr);
    if (it == map_.end()) {
        // HIDE-style initial permutation: protected memory is never
        // identity-mapped, so even never-written lines sit at
        // adversary-unpredictable locations (and DRAM row locality is
        // destroyed from the start — the cost Fig. 9 measures).
        it = map_.emplace(line_addr,
                          rng_.below(physLines_) * kExtLineBytes).first;
    }
    res.physAddr = it->second;
    return res;
}

RemapResult
RemapLayer::shuffle(Addr line_addr, Cycle cycle, const MetaMemPort &mem)
{
    ++shuffles_;
    RemapResult res;
    res.readyAt = touchEntry(line_addr, cycle, mem, true);
    res.physAddr = rng_.below(physLines_) * kExtLineBytes;
    map_[line_addr] = res.physAddr;
    return res;
}

} // namespace acp::secmem
