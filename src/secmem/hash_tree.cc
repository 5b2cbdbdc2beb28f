#include "secmem/hash_tree.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "secmem/external_memory.hh"

namespace acp::secmem
{

namespace
{

/** Keyed 64-bit mixing hash over eight 64-bit entries. */
std::uint64_t
mix64(std::uint64_t key, const std::uint64_t *vals, unsigned n)
{
    std::uint64_t h = key ^ 0x2545f4914f6cdd1dULL;
    for (unsigned i = 0; i < n; ++i) {
        std::uint64_t x = vals[i] + 0x9e3779b97f4a7c15ULL * (i + 1);
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        h = (h ^ x) * 0x94d049bb133111ebULL;
        h ^= h >> 31;
    }
    return h;
}

} // namespace

HashTree::HashTree(const sim::SimConfig &cfg, const ExternalMemory &ext)
    : ext_(ext), nodeCache_("tree_cache", kHashTreeCache),
      hashKey_(cfg.rngSeed ^ 0xfeedfacecafebeefULL), stats_("tree")
{
    std::uint64_t lines = cfg.protectedBytes / kExtLineBytes;
    leafGroups_ = divCeil(lines, kArity);

    // Level k has ceil(leafGroups_ / kArity^(k-1)) nodes; stop when a
    // single node remains (its parent is the on-chip root register).
    levels_ = 1;
    std::uint64_t count = leafGroups_;
    levelBase_.push_back(0); // level 0 unused
    levelBase_.push_back(0); // level 1 starts at 0
    std::uint64_t offset = count;
    // Stop once a single node remains: that node is the on-chip root
    // register and is never stored in external memory.
    while (count > 1) {
        count = divCeil(count, kArity);
        if (count <= 1)
            break;
        ++levels_;
        levelBase_.push_back(offset);
        offset += count;
    }

    // Metadata layout above the protected region: counters, MACs,
    // then tree nodes (addresses used only for DRAM timing).
    Addr meta = cfg.protectedBytes;
    Addr counters_bytes = cfg.protectedBytes / kExtLineBytes * 8;
    Addr macs_bytes = counters_bytes;
    treeBase_ = meta + counters_bytes + macs_bytes;

    defaultHash_.assign(levels_ + 1, 0);
    std::uint64_t zeros[kArity] = {0};
    defaultHash_[1] = mix64(hashKey_ ^ 1, zeros, kArity);
    for (unsigned level = 2; level <= levels_; ++level) {
        std::uint64_t kids[kArity];
        for (unsigned i = 0; i < kArity; ++i)
            kids[i] = defaultHash_[level - 1];
        defaultHash_[level] = mix64(hashKey_ ^ level, kids, kArity);
    }

    stats_.addCounter("verifies", &verifies_);
    stats_.addCounter("updates", &updates_);
    stats_.addCounter("node_fetches", &nodeFetches_);
    stats_.addCounter("node_writebacks", &nodeWritebacks_);
    stats_.addCounter("mismatches", &mismatches_);
    stats_.addAverage("walk_levels", &walkLevels_);
}

std::uint64_t
HashTree::key(unsigned level, std::uint64_t index) const
{
    return (std::uint64_t(level) << 56) | index;
}

std::uint64_t
HashTree::nodeHash(unsigned level, std::uint64_t index) const
{
    auto it = hashes_.find(key(level, index));
    return it == hashes_.end() ? defaultHash_[level] : it->second;
}

std::uint64_t
HashTree::computeNodeHash(unsigned level, std::uint64_t index) const
{
    std::uint64_t vals[kArity];
    if (level == 1) {
        for (unsigned i = 0; i < kArity; ++i) {
            Addr line = (index * kArity + i) * kExtLineBytes;
            vals[i] = ext_.counterOf(line);
        }
    } else {
        for (unsigned i = 0; i < kArity; ++i)
            vals[i] = nodeHash(level - 1, index * kArity + i);
    }
    return mix64(hashKey_ ^ level, vals, kArity);
}

Addr
HashTree::nodeAddr(unsigned level, std::uint64_t index) const
{
    return treeBase_ + (levelBase_[level] + index) * kExtLineBytes;
}

TreeTiming
HashTree::verify(Addr line_addr, Cycle start, const MetaMemPort &mem)
{
    ++verifies_;
    TreeTiming out;
    out.readyAt = start;

    std::uint64_t index = (line_addr / kExtLineBytes) / kArity;
    Cycle last_arrival = start;
    unsigned walked = 0;

    // Functional check: one level suffices to detect a stale counter;
    // upper levels only establish the trust chain (timing).
    out.ok = (computeNodeHash(1, index) == nodeHash(1, index));
    if (!out.ok)
        ++mismatches_;

    for (unsigned level = 1; level <= levels_; ++level) {
        ++walked;
        if (level == levels_) {
            nodeCache_.lookup(nodeAddr(level, index));
            break; // parent is the on-chip root register: never fetched
        }
        // Fetch the node on a miss (concurrently with siblings: all
        // issued at 'start'; the DRAM model serializes bank/bus
        // conflicts).
        MetaAccess node = touchMetaLine(nodeCache_, nodeAddr(level, index),
                                        start, mem, false);
        if (!node.missed)
            break; // trusted on-chip copy ends the walk
        ++nodeFetches_;
        ++out.nodeFetches;
        if (node.wroteBack)
            ++nodeWritebacks_;
        if (node.ready > last_arrival)
            last_arrival = node.ready;
        index /= kArity;
    }

    out.levelsHashed = walked;
    walkLevels_.sample(double(walked));
    out.readyAt = last_arrival + Cycle(walked) * kTreeHashLatency;
    return out;
}

TreeTiming
HashTree::update(Addr line_addr, Cycle start, const MetaMemPort &mem)
{
    ++updates_;
    TreeTiming out;
    out.readyAt = start;

    // Functional: refresh hashes from the leaf group to the root.
    std::uint64_t index = (line_addr / kExtLineBytes) / kArity;
    for (unsigned level = 1; level <= levels_; ++level) {
        hashes_[key(level, index)] = computeNodeHash(level, index);
        index /= kArity;
    }

    // Timing: the leaf-group node must be on-chip to be updated.
    std::uint64_t leaf_index = (line_addr / kExtLineBytes) / kArity;
    MetaAccess node = touchMetaLine(nodeCache_, nodeAddr(1, leaf_index),
                                    start, mem, true);
    if (node.missed) {
        ++nodeFetches_;
        ++out.nodeFetches;
    }
    if (node.wroteBack)
        ++nodeWritebacks_;
    out.levelsHashed = 1;
    out.readyAt = node.ready + kTreeHashLatency;
    return out;
}

} // namespace acp::secmem
