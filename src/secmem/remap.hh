/**
 * @file
 * Address obfuscation layer (paper Section 4.3 / 5.2.4), modeled after
 * the HIDE-style re-mapping of [29]: every time a line is written back
 * to external memory it is re-shuffled to a fresh random location; an
 * on-chip re-map cache holds recently used translation entries, and
 * entries missing from it must be fetched (encrypted) from external
 * memory. Both costs the paper measures are modeled: extra memory
 * traffic for re-map entries, and the destruction of DRAM row locality
 * by randomized placement.
 *
 * Functional note: line *contents* are keyed by logical address in
 * ExternalMemory; the remapped location only affects DRAM timing and
 * what the adversary observes on the address bus.
 */

#ifndef ACP_SECMEM_REMAP_HH
#define ACP_SECMEM_REMAP_HH

#include <unordered_map>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "secmem/meta_port.hh"
#include "sim/config.hh"

namespace acp::secmem
{

/** Outcome of a remap-layer operation. */
struct RemapResult
{
    /** Physical (shuffled) location of the line. */
    Addr physAddr = 0;
    /** Cycle the translation is available. */
    Cycle readyAt = 0;
};

/** Re-map table with on-chip re-map cache. */
class RemapLayer
{
  public:
    RemapLayer(const sim::SimConfig &cfg);

    /** Translate a logical line address for a fetch. Entry traffic is
     *  issued through @p mem, the transaction's metadata port. */
    RemapResult translate(Addr line_addr, Cycle cycle,
                          const MetaMemPort &mem);

    /** Re-shuffle on writeback: new random location, entry update. */
    RemapResult shuffle(Addr line_addr, Cycle cycle,
                        const MetaMemPort &mem);

    StatGroup &stats() { return stats_; }

  private:
    /** Address of the remap-table line holding @p line_addr's entry. */
    Addr entryLineAddr(Addr line_addr) const;
    /** Charge the remap-cache access; fetch the entry line on miss. */
    Cycle touchEntry(Addr line_addr, Cycle cycle, const MetaMemPort &mem,
                     bool make_dirty);

    const sim::SimConfig &cfg_;
    cache::Cache remapCache_;
    std::unordered_map<Addr, Addr> map_;
    Rng rng_;
    Addr tableBase_;
    std::uint64_t physLines_;

    StatGroup stats_;
    StatCounter translates_;
    StatCounter shuffles_;
    StatCounter entryFetches_;
    StatCounter entryWritebacks_;
};

} // namespace acp::secmem

#endif // ACP_SECMEM_REMAP_HH
