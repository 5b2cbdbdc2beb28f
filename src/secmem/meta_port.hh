/**
 * @file
 * Metadata memory port and the one metadata-line access: how the
 * controller's three metadata caches (counter cache, hash-tree node
 * cache, remap cache) reach external memory.
 *
 * One port instance is scoped to the transaction whose access
 * triggered the traffic, so every counter-line, node or entry transfer
 * it issues lands on that transaction's path timeline, reserves the
 * shared bus, and appears in the adversary-visible bus trace. The port
 * is the only path from metadata to DRAM. Metadata fetches are exempt
 * from the authen-then-fetch gate (see DESIGN.md).
 */

#ifndef ACP_SECMEM_META_PORT_HH
#define ACP_SECMEM_META_PORT_HH

#include <cstdint>

#include "cache/cache.hh"
#include "common/types.hh"

namespace acp::secmem
{

/** Bytes per per-line counter in external memory. */
constexpr unsigned kCounterBytes = 8;

/**
 * Where the metadata lives in the external address space, above the
 * memoryBytes of data: one kCounterBytes counter per data line, then a
 * MAC region of the same size, then the integrity tree's nodes, then
 * the remap table from 1.5 * memoryBytes. A tree over at most
 * memoryBytes stores under memoryBytes / 7 bytes of nodes, so it ends
 * below the remap table. The addresses feed DRAM timing and the bus
 * trace only.
 */
struct MetaLayout
{
    constexpr explicit MetaLayout(std::uint64_t memory_bytes)
        : counterBase(memory_bytes),
          macBase(counterBase +
                  memory_bytes / kExtLineBytes * kCounterBytes),
          treeBase(macBase + (macBase - counterBase)),
          remapBase(memory_bytes + memory_bytes / 2)
    {
    }

    /** The line of the counter region that holds the counter of data
     *  line @p line_addr. */
    constexpr Addr
    counterLine(Addr line_addr) const
    {
        Addr addr = counterBase + line_addr / kExtLineBytes * kCounterBytes;
        return addr & ~Addr(kExtLineBytes - 1);
    }

    Addr counterBase;
    Addr macBase;
    Addr treeBase;
    Addr remapBase;
};

/** The port interface. Tests substitute fixed-latency ports. */
class MetaMemPort
{
  public:
    virtual ~MetaMemPort() = default;

    /** Fetch a metadata line; returns the completion cycle. */
    virtual Cycle read(Addr addr, Cycle cycle) const = 0;

    /** Write back a metadata line; returns the completion cycle. */
    virtual Cycle write(Addr addr, Cycle cycle) const = 0;
};

/** What one metadata-line access did. */
struct MetaAccess
{
    Cycle ready = 0;        // the line is on-chip
    bool missed = false;    // the line was read through the port
    bool wroteBack = false; // a dirty victim went back through the port
};

/**
 * Bring metadata line @p line on-chip in @p cache at @p cycle. A hit
 * issues no traffic and is ready at @p cycle. A miss reads the line
 * through @p port at @p cycle, allocates it, and writes a dirty victim
 * back at the read's completion. @p make_dirty marks the line (an
 * update), so its own eviction is written back later.
 */
inline MetaAccess
touchMetaLine(cache::Cache &cache, Addr line, Cycle cycle,
              const MetaMemPort &port, bool make_dirty)
{
    MetaAccess out{cycle};
    cache::CacheLine *entry = cache.lookup(line);
    if (entry == nullptr) {
        out.missed = true;
        out.ready = port.read(line, cycle);
        cache::Eviction victim;
        entry = cache.allocate(line, victim);
        if (victim.dirty) {
            out.wroteBack = true;
            port.write(victim.addr, out.ready);
        }
    }
    if (make_dirty)
        entry->dirty = true;
    return out;
}

} // namespace acp::secmem

#endif // ACP_SECMEM_META_PORT_HH
