/**
 * @file
 * Full memory hierarchy of the secure processor: per-core private
 * stacks (split L1 I/D caches, unified write-back L2, TLBs) in front
 * of one shared secure memory controller at the L2/external boundary.
 * On-chip lines hold plaintext; external memory is encrypted and
 * MACed (paper Section 2; external_memory.hh says when its crypto
 * runs).
 *
 * The hierarchy is a latency oracle in the SimpleScalar tradition:
 * timed accesses return a mem::Txn whose ready cycle is when data
 * becomes *usable by the pipeline* (which, under authen-then-issue, is
 * the verification completion, not the decrypt completion) plus the
 * authentication sequence tag that commit/write gates consult. A line
 * fill behind a miss folds its outcome (ready/data cycles, auth tag,
 * gate delay, bus window) into the access Txn; the access itself has
 * no timeline. The fill's timeline lives on the controller's
 * transaction, which the controller retires to the profiler/trace.
 */

#ifndef ACP_SECMEM_MEM_HIERARCHY_HH
#define ACP_SECMEM_MEM_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/tlb.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/program.hh"
#include "mem/txn.hh"
#include "secmem/secure_memctrl.hh"
#include "sim/config.hh"

namespace acp::secmem
{

/** L1 instruction cache (paper Table 3): direct-mapped 16 KiB of
 *  32-byte lines, one-cycle hits. */
constexpr sim::CacheConfig kL1iCache{16 * 1024, 1, 32, 1};
static_assert(kL1iCache.lineBytes <= kExtLineBytes,
              "an L1 line must not exceed the L2 line");

/** I-TLB and D-TLB geometry and miss penalty (cycles). */
constexpr unsigned kTlbEntries = 128;
constexpr unsigned kTlbAssoc = 4;
constexpr unsigned kPageBytes = 4096;
constexpr unsigned kTlbMissPenalty = 30;

/** The hierarchy. */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const sim::SimConfig &cfg);

    /** Own groups (hier, caches, TLBs), then the controller's. */
    void visitStats(StatGroupVisitor &v);

    // ----- clients ------------------------------------------------------
    // Client ids are core indices, 0 .. cfg.numCores - 1. The
    // hierarchy carves the simulated address space into per-client
    // slices of clientStride() bytes: every access a client makes is
    // offset by id * stride before translation, so the 18 kernels
    // (whose programs embed absolute pointers) run unmodified side by
    // side without aliasing. Client 0's base is 0, so a single-core
    // system sees the whole space unshifted.

    /** Base address of @p client's slice (id * clientStride()). */
    Addr clientBase(unsigned client) const
    {
        return Addr(client) * stride_;
    }

    /** Per-client address-space slice; memoryBytes for one client. */
    Addr clientStride() const { return stride_; }

    // ----- timed accesses (move data AND compute latency) --------------
    /** Data read of @p bytes (1/4/8), may cross line boundaries. */
    mem::Txn readTimed(Addr addr, unsigned bytes, Cycle cycle,
                       AuthSeq gate_tag, std::uint64_t &value,
                       std::uint64_t origin = 0, unsigned client = 0);
    /** Data write (store release). */
    mem::Txn writeTimed(Addr addr, unsigned bytes, std::uint64_t value,
                        Cycle cycle, AuthSeq gate_tag,
                        std::uint64_t origin = 0, unsigned client = 0);
    /** Instruction fetch of one word. */
    mem::Txn fetchTimed(Addr pc, Cycle cycle, AuthSeq gate_tag,
                        std::uint32_t &word, unsigned client = 0);

    // ----- warm accesses (fast-forward) --------------------------------
    /**
     * The same walk as the timed accesses: TLB, one L1 lookup per line
     * the access touches, fills through the L2 and the controller's
     * warm branch, LRU updates, evictions and writebacks. A warm access
     * carries no timing: filled lines keep usableAt = dataReadyAt = 0
     * and no auth tag, and no bus, DRAM, auth engine, bus trace,
     * profiler or timeline sees it.
     */
    std::uint64_t readWarm(Addr addr, unsigned bytes, unsigned client = 0);
    void writeWarm(Addr addr, unsigned bytes, std::uint64_t value,
                   unsigned client = 0);
    std::uint32_t fetchWarm(Addr pc, unsigned client = 0);

    /** Load a program image into external memory (trusted provision),
     *  shifted into the slice starting at @p base. */
    void loadProgram(const isa::Program &prog, Addr base = 0);

    SecureMemCtrl &ctrl() { return ctrl_; }
    const SecureMemCtrl &ctrl() const { return ctrl_; }
    cache::Cache &l1i(unsigned client = 0) { return cores_[client]->l1i; }
    cache::Cache &l1d(unsigned client = 0) { return cores_[client]->l1d; }
    cache::Cache &l2(unsigned client = 0) { return cores_[client]->l2; }
    cache::Tlb &itlb(unsigned client = 0) { return cores_[client]->itlb; }
    cache::Tlb &dtlb(unsigned client = 0) { return cores_[client]->dtlb; }
    std::uint64_t translationFaults() const { return faults_.value(); }
    StatGroup &stats() { return stats_; }

  private:
    /**
     * One client's private cache stack: split L1 I/D, unified
     * write-back L2, and TLBs. Everything *behind* the stack — the
     * secure memory controller, bus, DRAM, auth engine, and the
     * metadata caches (counters, hash-tree nodes, remap table) — is
     * shared by all clients; the private stacks themselves need no
     * coherence protocol because the per-client address slices are
     * disjoint by construction. A single-core system has exactly one
     * stack with the classic stat-group names ("l1i", "l1d", "l2",
     * "itlb", "dtlb"); multi-core stacks are prefixed "cpuN.".
     */
    struct CoreCaches
    {
        CoreCaches(const sim::SimConfig &cfg, unsigned client,
                   const std::string &prefix);
        /** The client (core index) this stack belongs to. */
        unsigned client;
        cache::Cache l1i;
        cache::Cache l1d;
        cache::Cache l2;
        cache::Tlb itlb;
        cache::Tlb dtlb;
    };
    CoreCaches &cc(unsigned client) { return *cores_[client]; }

    /** Clamp to the simulated address space, counting faults. */
    Addr translate(Addr addr);
    /** Fold a cache hit's line timing into the access transaction. */
    static void foldLine(mem::Txn &acc, Cycle lookup_done,
                         const cache::CacheLine &line);
    /**
     * Ensure the line is in @p c's L2, filling it through the
     * controller on a miss. A timed access passes its transaction as
     * @p acc (the hit's or fill's timing folds into it); a warm access
     * passes nullptr and the fill stays untimed.
     */
    cache::CacheLine *ensureL2(CoreCaches &c, Addr line_addr, Cycle cycle,
                               mem::BusTxnKind kind, mem::Txn *acc);
    /** Ensure the line is in @p c's L1 (filling from its L2 on miss,
     *  a timed fill taking its L2 line's timing as of the L2 lookup);
     *  @p acc as for ensureL2. */
    cache::CacheLine *ensureL1(CoreCaches &c, Addr line_addr, Cycle cycle,
                               bool is_instr, mem::Txn *acc);
    /** Walk the L1D lines of [addr, addr + bytes) in address order:
     *  write @p value's bytes into them (dirtying each line) or read
     *  and return theirs. @p addr is already translated. Inline (in
     *  mem_hierarchy.cc) so each access wrapper calls ensureL1
     *  directly, as the fetch-bound timed loop needs. */
    inline std::uint64_t walkData(CoreCaches &c, Addr addr, unsigned bytes,
                                  bool write, std::uint64_t value,
                                  Cycle cycle, mem::Txn *acc);
    /** Read the instruction word at translated @p pc through L1I. */
    inline std::uint32_t walkFetch(CoreCaches &c, Addr pc, Cycle cycle,
                                   mem::Txn *acc);
    /** Evict an L2 victim from @p c's stack: back-invalidate its L1s,
     *  write back if dirty (charged to @p c's client). */
    void handleL2Eviction(CoreCaches &c, cache::Eviction &evicted,
                          Cycle cycle, bool warm);

    const sim::SimConfig &cfg_;
    SecureMemCtrl ctrl_;
    /** Private cache stacks, one per client (numCores). */
    std::vector<std::unique_ptr<CoreCaches>> cores_;
    /** Per-client slice size (== memoryBytes for a single client). */
    Addr stride_ = 0;

    StatGroup stats_;
    StatCounter faults_;
    StatCounter crossLineAccesses_;
};

} // namespace acp::secmem

#endif // ACP_SECMEM_MEM_HIERARCHY_HH
