/**
 * @file
 * CHTree-style m-ary integrity tree (paper Section 5.2.3, Fig. 12/13)
 * protecting the per-line write counters against replay. Leaves are
 * the 8-byte line counters, grouped 8 per 64-byte node; each internal
 * node stores the hash of its child group. Verified nodes are cached
 * in a dedicated on-chip node cache: a cached node is trusted, so a
 * verification walk stops at the first cache hit (or the on-chip
 * root). Internal-node checks proceed concurrently where possible, as
 * in the paper's implementation.
 *
 * Functional substitution (documented in DESIGN.md): the paper's
 * CHTree hashes data lines with SHA-1; we protect counters with a
 * keyed 64-bit mixing hash. Tamper/replay detection behaviour and the
 * timing structure (node fetches + per-level hash latency) are
 * preserved; the per-line data MAC remains a real truncated
 * HMAC-SHA256.
 */

#ifndef ACP_SECMEM_HASH_TREE_HH
#define ACP_SECMEM_HASH_TREE_HH

#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "secmem/meta_port.hh"
#include "sim/config.hh"

namespace acp::secmem
{

class ExternalMemory;

/** The tree's on-chip node cache (Fig. 12/13): 8 KiB, 4-way. */
constexpr sim::CacheConfig kHashTreeCache{8 * 1024, 4, 64, 1};
/** Per-level hash latency (one SHA-256 pass). */
constexpr unsigned kTreeHashLatency = 74;

/** Timing outcome of a tree operation. */
struct TreeTiming
{
    /** Cycle the walk's verdict is available. */
    Cycle readyAt = 0;
    /** Levels hashed during the walk. */
    unsigned levelsHashed = 0;
    /** Node fetches issued to external memory. */
    unsigned nodeFetches = 0;
    /** Functional verdict (false == replayed/tampered counter). */
    bool ok = true;
};

/** The integrity tree with its dedicated node cache. */
class HashTree
{
  public:
    HashTree(const sim::SimConfig &cfg, const ExternalMemory &ext);

    /** Arity (children per node): line bytes / 8-byte entries. */
    static constexpr unsigned kArity = 8;

    /**
     * Verify the counter of @p line_addr against the tree: walk up
     * from the leaf group to the first trusted (cached) node. Node
     * traffic is issued through @p mem, the triggering transaction's
     * metadata port.
     */
    TreeTiming verify(Addr line_addr, Cycle start, const MetaMemPort &mem);

    /**
     * Update the tree after a counter bump (line writeback): refresh
     * functional hashes up to the root and dirty the leaf-group node
     * in the cache (fetching it first on a miss).
     */
    TreeTiming update(Addr line_addr, Cycle start, const MetaMemPort &mem);

    /** Number of levels above the leaves (root excluded from memory). */
    unsigned levels() const { return levels_; }

    StatGroup &stats() { return stats_; }

  private:
    std::uint64_t key(unsigned level, std::uint64_t index) const;
    std::uint64_t nodeHash(unsigned level, std::uint64_t index) const;
    std::uint64_t computeNodeHash(unsigned level, std::uint64_t index) const;
    Addr nodeAddr(unsigned level, std::uint64_t index) const;

    const ExternalMemory &ext_;
    cache::Cache nodeCache_;
    unsigned levels_;
    std::uint64_t leafGroups_;
    /** Region base for tree nodes in the external address space. */
    Addr treeBase_;
    /** Per-level index offsets into the tree region. */
    std::vector<std::uint64_t> levelBase_;
    /** Default (all-zero-counter) hash per level. */
    std::vector<std::uint64_t> defaultHash_;
    /** Materialized node hashes (keyed (level, index)). */
    std::unordered_map<std::uint64_t, std::uint64_t> hashes_;
    std::uint64_t hashKey_;

    StatGroup stats_;
    StatCounter verifies_;
    StatCounter updates_;
    StatCounter nodeFetches_;
    StatCounter nodeWritebacks_;
    StatCounter mismatches_;
    StatAverage walkLevels_;
};

} // namespace acp::secmem

#endif // ACP_SECMEM_HASH_TREE_HH
