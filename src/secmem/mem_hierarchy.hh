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
 * a timed access returns an Access whose ready cycle is when its data
 * becomes *usable by the pipeline* (which, under authen-then-issue, is
 * the verification completion, not the decrypt completion) plus the
 * authentication sequence tag that commit/write gates consult. Every
 * L1 line an access touches carries that timing, and the access folds
 * each one at its L1 lookup: the one rule, whether the line hit or was
 * just filled. An off-chip fill behind a miss is the controller's
 * mem::Txn; it sets its L2 line's timing, and its timeline goes to the
 * profiler and the trace, never to the core.
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
#include "mem/bus_trace.hh"
#include "secmem/secure_memctrl.hh"
#include "sim/config.hh"

namespace acp::secmem
{

/** L1 instruction cache (paper Table 3): direct-mapped 16 KiB of
 *  32-byte lines, one-cycle hits. */
constexpr sim::CacheConfig kL1iCache{16 * 1024, 1, 32, 1};
static_assert(kL1iCache.lineBytes <= kExtLineBytes,
              "an L1 line must not exceed the L2 line");

/** The instruction word at @p pc in the L1I line whose bytes start at
 *  @p line (little-endian, as loadProgram stores code). */
inline std::uint32_t
lineWord(const std::uint8_t *line, Addr pc)
{
    const std::uint8_t *p = line + (pc & (kL1iCache.lineBytes - 1));
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
           std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
}

/**
 * The core's view of one timed access: the two inputs a fill behind it
 * passes to the controller, and the outcome the core reads. The
 * outcome is the latest of the L1 lines the access touched, each as of
 * its L1 lookup (MemHierarchy::foldLine), plus what no line carries:
 * whether the fetch gate held a fill, and the primary transfer's bus
 * window.
 */
struct Access
{
    // ----- inputs to a fill behind the access ---------------------------
    /** LastRequest tag for the authen-then-fetch gate. */
    AuthSeq gateTag = kNoAuthSeq;
    /** Originating RUU context: dynamic instruction number (0 = none). */
    std::uint64_t origin = 0;

    // ----- outcome -------------------------------------------------------
    /** Cycle the data is usable by the pipeline (the control point's
     *  decision: decrypt completion, or the verdict under
     *  authen-then-issue; kCycleNever for a squashed or failed fill). */
    Cycle ready = 0;
    /** Cycle the decrypted data is physically on-chip. */
    Cycle dataReady = 0;
    /** Latest auth request covering the data (kNoAuthSeq: none). */
    AuthSeq authSeq = kNoAuthSeq;
    /** Whether the authen-then-fetch gate delayed a fill's bus grant. */
    bool gateDelayed = false;
    /**
     * Bus queueing of the first fill's line transfer: the cycle it
     * could first have driven the bus and the cycle the arbiter granted
     * it. busGrantAt > busRequestAt means the grant was contended, the
     * window the core's bus_wait stall cause charges. kCycleNever when
     * no fill went to the bus.
     */
    Cycle busRequestAt = kCycleNever;
    Cycle busGrantAt = kCycleNever;
};

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

    /** Own groups (hier, then each client's caches and TLBs), then the
     *  controller's, in dump order. */
    std::vector<StatGroup *> statGroups();

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
    Access readTimed(Addr addr, unsigned bytes, Cycle cycle,
                     AuthSeq gate_tag, std::uint64_t &value,
                     std::uint64_t origin = 0, unsigned client = 0);
    /** Data write (store release). */
    Access writeTimed(Addr addr, unsigned bytes, std::uint64_t value,
                      Cycle cycle, AuthSeq gate_tag,
                      std::uint64_t origin = 0, unsigned client = 0);
    /**
     * Instruction fetch of one word: the first word of a fetch group.
     * @p line receives the bytes of the L1I line the word came from, or
     * nullptr when @p pc faulted in translation. The group reads its
     * later words from that line (lineWord) and counts them with
     * countFetchHits.
     */
    Access fetchTimed(Addr pc, Cycle cycle, AuthSeq gate_tag,
                      std::uint32_t &word, const std::uint8_t *&line,
                      unsigned client = 0);
    /**
     * Count @p n I-TLB and L1I hits for @p client: the later words of a
     * fetch group, which read the line fetchTimed handed out. n more
     * walks would each hit the I-TLB entry and the L1I line the group's
     * first walk touched last, with nothing touching either in
     * between, so they would leave every replacement decision as it is
     * (the L1I is direct-mapped, and a TLB ranks ways by their last
     * touch): they only count.
     */
    void countFetchHits(unsigned n, unsigned client = 0);

    // ----- warm accesses (fast-forward) --------------------------------
    /**
     * The same walk as the timed accesses: TLB, one L1 lookup per line
     * the access touches, fills through the L2 and the controller's
     * warm branch, LRU updates, evictions and writebacks. A warm access
     * passes no Access, so it carries no timing: filled lines keep
     * usableAt = dataReadyAt = 0 and no auth tag, and no bus, DRAM,
     * auth engine, bus trace, profiler or timeline sees it.
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
    /** Fold an L1 line's timing, as of its lookup ending at
     *  @p lookup_done, into the access: the latest cycle wins. */
    static void foldLine(Access &acc, Cycle lookup_done,
                         const cache::CacheLine &line);
    /**
     * Ensure the line is in @p c's L2, filling it through the
     * controller on a miss. A timed access passes itself as @p acc: a
     * fill then takes the controller's timing into the L2 line, and
     * the access takes only what no line carries (the gate's hold and
     * the first fill's bus window). A warm access passes nullptr and
     * the fill stays untimed.
     */
    cache::CacheLine *ensureL2(CoreCaches &c, Addr line_addr, Cycle cycle,
                               mem::BusTxnKind kind, Access *acc);
    /** Ensure the line is in @p c's L1, filling it from its L2 on a
     *  miss (a timed fill takes its L2 line's timing as of the L2
     *  lookup), and fold it into @p acc (as for ensureL2). */
    cache::CacheLine *ensureL1(CoreCaches &c, Addr line_addr, Cycle cycle,
                               bool is_instr, Access *acc);
    /** A data access by @p client: offset into its slice, translate,
     *  charge the D-TLB, then walk the L1D lines of [addr, addr +
     *  bytes) in address order, writing @p value's bytes into them
     *  (dirtying each line) or reading and returning theirs. @p acc as
     *  for ensureL2. Inline (in mem_hierarchy.cc) so each access
     *  wrapper calls ensureL1 directly, as the fetch-bound timed loop
     *  needs. */
    inline std::uint64_t walkData(unsigned client, Addr addr,
                                  unsigned bytes, bool write,
                                  std::uint64_t value, Cycle cycle,
                                  Access *acc);
    /** An instruction fetch by @p client: offset, translate, charge
     *  the I-TLB and read the word at @p pc into @p word from the L1I
     *  line holding it (filled on a miss). Returns that line's bytes,
     *  or nullptr when @p pc faulted in translation. @p acc as for
     *  ensureL2. */
    inline const std::uint8_t *walkFetch(unsigned client, Addr pc,
                                         Cycle cycle, std::uint32_t &word,
                                         Access *acc);
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
