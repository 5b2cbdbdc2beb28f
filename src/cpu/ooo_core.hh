/**
 * @file
 * Out-of-order core in the SimpleScalar RUU style: an 8-wide
 * fetch/decode/issue/commit pipeline with a unified Register Update
 * Unit (ROB + reservation stations), a load/store queue with
 * store-to-load forwarding, a post-commit store(-release) buffer, and
 * speculative execution down predicted paths.
 *
 * The four *authentication control points* of the paper are
 * implemented here and in the memory hierarchy:
 *   issue  — fill data unusable until verified (hierarchy usableAt)
 *   commit — ROB head held until own-line + operand-line tags verify
 *   write  — committed stores parked in the store-release buffer
 *            until their LastRequest tag verifies
 *   fetch  — external fetches gated in the secure memory controller
 *            on the LastRequest tag captured at issue
 *
 * Speculative loads issue real bus transactions before commit — this
 * is precisely the side channel the paper studies, and the attack
 * examples observe it through the bus trace.
 */

#ifndef ACP_CPU_OOO_CORE_HH
#define ACP_CPU_OOO_CORE_HH

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/branch_pred.hh"
#include "cpu/flat_mem.hh"
#include "cpu/func_executor.hh"
#include "isa/instr.hh"
#include "obs/interval.hh"
#include "obs/stall.hh"
#include "obs/trace_json.hh"
#include "secmem/mem_hierarchy.hh"
#include "sim/config.hh"

namespace acp::cpu
{

/** Functional units per class (paper Table 3). The integer divider
 *  and the FP divider are one unit each, unpipelined (OpInfo). */
constexpr unsigned kIntAluUnits = 8;
constexpr unsigned kIntMulUnits = 2;
constexpr unsigned kMemPorts = 4;
constexpr unsigned kFpAddUnits = 4;
constexpr unsigned kFpMulUnits = 2;
/** isa::FuClass values, kNone included. */
constexpr unsigned kNumFuClasses = unsigned(isa::FuClass::kNone) + 1;
/** Units each isa::FuClass offers per cycle. An unpipelined class
 *  (OpInfo::pipelined false) is one unit, held until its op's latency
 *  ends; kNone (nop, halt) needs only an issue slot. */
constexpr std::array<unsigned, kNumFuClasses> kFuUnits = {
    kIntAluUnits, // kIntAlu
    kIntMulUnits, // kIntMul
    1,            // kIntDiv
    kMemPorts,    // kMemPort
    kFpAddUnits,  // kFpAdd
    kFpMulUnits,  // kFpMul
    1,            // kFpDiv
    ~0u,          // kNone
};
static_assert(kFuUnits[unsigned(isa::FuClass::kIntDiv)] == 1 &&
                  kFuUnits[unsigned(isa::FuClass::kMemPort)] == kMemPorts &&
                  kFuUnits[unsigned(isa::FuClass::kFpDiv)] == 1,
              "kFuUnits lists the classes in isa::FuClass order");
/** Cycles from mispredict detection to fetch restart. */
constexpr unsigned kMispredictPenalty = 3;

/** Why the core stopped. */
enum class StopReason
{
    kRunning,
    kHalted,
    kSecurityException,
    kInstLimit,
    kCycleLimit,
};

/** Stable display name of a stop reason (shared by every sink). */
const char *stopReasonName(StopReason reason);

/** The out-of-order core: the active part of the system. A
 *  single-core system has one; a multi-core system has numCores of
 *  them registered as clients of one shared MemHierarchy. */
class OooCore
{
  public:
    /**
     * @p client is the hierarchy client id this core issues memory
     * traffic as (its core index); @p name is the
     * stat-group name — exactly "core" for a single-core system
     * (bit-identical stat surface), "cpuN.core" otherwise.
     */
    OooCore(const sim::SimConfig &cfg, secmem::MemHierarchy &hier,
            Addr entry, unsigned client = 0,
            const std::string &name = "core");

    /**
     * Enable commit-time co-simulation against a functional shadow
     * (non-owning; typically the System's reference machine, already
     * advanced to the same architectural point). Never combine with
     * ciphertext tampering — the shadow models the untampered program.
     */
    void setCosimShadow(FuncExecutor *shadow) { shadow_ = shadow; }

    // ----- run control (System::measureTimed drives these) --------------
    /**
     * Arm a measurement window: run until @p max_insts commits,
     * @p max_cycles elapse, HALT commits, or a security exception
     * fires. System::measureTimed runs the window by calling onWake
     * until it returns kCycleNever; runReason() reports the outcome.
     */
    void beginRun(std::uint64_t max_insts, std::uint64_t max_cycles);

    /** Outcome of the armed window: a limit, or why the core stopped. */
    StopReason runReason() const;

    /**
     * Simulate cycle @p now; on an idle outcome, batch-account the
     * stall window analytically and jump to the next cycle anything
     * can change (the event-driven fast path). Returns the next cycle
     * to run, or kCycleNever once stopped / past a limit.
     */
    Cycle onWake(Cycle now);

    /** "core", or "cpuN.core" in a multi-core system. */
    const std::string &name() const { return stats_.name(); }

    // ----- results ------------------------------------------------------
    Cycle cycles() const { return cycle_; }
    std::uint64_t instsCommitted() const { return committed_.value(); }
    bool securityException() const
    {
        return stopReason_ == StopReason::kSecurityException;
    }
    /** Precise exceptions pin the fault to an instruction boundary. */
    bool exceptionPrecise() const { return exceptionPrecise_; }
    Cycle exceptionCycle() const { return exceptionCycle_; }

    /** Architectural register value (committed state). */
    std::uint64_t reg(unsigned idx) const { return regs_[idx & 31]; }
    void
    setReg(unsigned idx, std::uint64_t v)
    {
        if ((idx & 31) != 0)
            regs_[idx & 31] = v;
    }

    /**
     * Emit a one-line commit trace for the next @p insts committed
     * instructions to @p out (cycle, pc, disassembly, result) — the
     * debugging view of architectural progress.
     */
    void traceCommits(std::FILE *out, std::uint64_t insts);

    /** Record this core's pipeline instants from now on: the core's
     *  track of the Chrome trace. Passive. */
    void enableTrace() { tracing_ = true; }

    /** Instants recorded since enableTrace(), in record order. */
    const std::vector<obs::PipelineEvent> &
    pipelineTrace() const
    {
        return pipelineTrace_;
    }

    /**
     * The --stats-interval series (empty unless cfg.statsInterval !=
     * 0): one row per [kP, (k+1)P) of the core-local clock, plus the
     * partial tail of each timed window. The core hands the sampler
     * its totals at every period boundary — ticked or skipped — so
     * rows only read statistics the core maintains anyway.
     */
    const std::vector<obs::IntervalSample> &intervals() const
    {
        return intervals_.rows();
    }

    /** Record the series' partial tail at the end of a timed window. */
    void finishIntervals();

    /** Cumulative per-cause stall cycles of the stats window. */
    obs::StallArray stallCycles() const;

    StatGroup &stats() { return stats_; }

  private:
    // ----- pipeline structures -------------------------------------------
    /**
     * One RUU slot: only what dispatch, issue and completion computed.
     * What the instruction is (its op flags, access size and
     * destination) the decoded inst and the opcode table say; whether
     * the slot is live the ring's head and count say. Dispatch writes,
     * in place, every field a stage can read before the instruction
     * issues; issue writes the rest (result, readyAt, the memory and
     * control outcomes, issueTag). The 8-byte fields come first and
     * the one-byte fields last, so nothing pads.
     */
    struct RuuEntry
    {
        std::uint64_t seq = 0; // dynamic instruction number
        Addr pc = 0;
        isa::DecodedInst inst;

        // Operands: read at dispatch, or written by the producer's
        // completion (wakeConsumers). Neither changes once issued.
        std::uint64_t v1 = 0, v2 = 0;

        Cycle readyAt = 0;
        std::uint64_t result = 0;

        // A store's value, or an OUT's value and port
        std::uint64_t storeValue = 0;
        std::uint64_t outPort = 0;

        // Control
        Addr predTarget = 0;
        Addr actualNext = 0;

        // Security tags
        /** Commit-gate tag: the later of the I-line's auth request
         *  (set at dispatch) and the loaded line's (raised at a load's
         *  issue when its data comes from the hierarchy). */
        AuthSeq gateTag = kNoAuthSeq;
        AuthSeq issueTag = kNoAuthSeq; // LastRequest at issue

        bool v1Ready = false, v2Ready = false;
        bool issued = false;
        /** Set when the completion queue pops the entry at its
         *  readyAt: so it implies issued and readyAt <= cycle_. */
        bool completed = false;
        bool predTaken = false;
        bool taken = false;
        /** Precise dataflow taint: this instruction's value derives
         *  from a line whose verification (functionally) failed. */
        bool tainted = false;

        /** A memory op's effective address: base operand plus offset. */
        Addr memAddr() const { return v1 + std::uint64_t(inst.imm); }
        bool isOut() const { return inst.op == isa::Op::kOut; }
    };
    static_assert(sizeof(RuuEntry) <= 120,
                  "an RUU entry is written per dispatched instruction");

    /** A load's timing, for stall attribution only (classifyStall and
     *  nextWakeCycle read it for an issued load at the RUU head): one
     *  per RUU slot, written when the load in that slot issues. */
    struct LoadTiming
    {
        /** Cycle the data is physically on-chip (equals readyAt
         *  except under authen-then-issue, where the gap is the
         *  verification wait). */
        Cycle dataReadyAt = 0;
        /** For a load that went off-chip: the primary transfer's bus
         *  request/grant window (kCycleNever when it never left the
         *  chip). busGrantAt > busReqAt means the shared-bus arbiter
         *  queued it behind other traffic. */
        Cycle busReqAt = kCycleNever;
        Cycle busGrantAt = kCycleNever;
    };

    struct FetchedInst
    {
        Addr pc = 0;
        isa::DecodedInst inst;
        bool predTaken = false;
        /** Whether the fetch group's I-line request failed
         *  verification (the instruction's taint at dispatch). */
        bool tainted = false;
        Addr predTarget = 0;
        AuthSeq fetchSeq = kNoAuthSeq;
    };

    struct StoreBufEntry
    {
        Addr addr = 0;
        unsigned bytes = 0;
        std::uint64_t value = 0;
        AuthSeq tag = kNoAuthSeq; // LastRequest at issue of the store
        bool tainted = false;
        bool isOut = false;
        std::uint64_t outPort = 0;
    };

    /** An issued, not yet completed instruction in the completion
     *  queue. */
    struct Completion
    {
        Cycle readyAt = 0;
        std::uint64_t seq = 0;
        unsigned slot = 0;
    };
    /** Heap order: the earliest readyAt on top, the oldest first among
     *  equals. A type, not a function pointer, so the heap algorithms
     *  inline the compare. */
    struct CompletesLater
    {
        bool
        operator()(const Completion &a, const Completion &b) const
        {
            return a.readyAt != b.readyAt ? a.readyAt > b.readyAt
                                          : a.seq > b.seq;
        }
    };

    // ----- the cycle ------------------------------------------------------
    /** Simulate one cycle (complete, commit, store-buffer drain,
     *  issue, dispatch, fetch) and advance cycle_; onWake calls it for
     *  every cycle it does not skip. Returns false once stopped. Sets
     *  progress_ when any stage changed machine state. */
    bool tick();

    /**
     * First cycle >= cycle_ at which any stage predicate can change
     * while the machine is idle: the earliest pending completion (the
     * completion queue's head), gate verdicts, frontend restart, an
     * unpipelined unit freeing up, engine failures, and the
     * no-progress panic bound. Waking at an extra cycle only replays
     * an idle tick, but it is one more wake; missing a cycle would
     * skip a tick on which a stage could act.
     */
    Cycle nextWakeCycle() const;

    /**
     * Account @p n skipped idle cycles exactly as ticking each of them
     * would: per-cycle stall/occupancy bookkeeping batched
     * arithmetically, split at each interval boundary inside the
     * window. Machine state is frozen across the window by
     * construction, so this is bit-identical to ticking.
     */
    void accountIdleCycles(std::uint64_t n);

    // ----- stages ---------------------------------------------------------
    void stageComplete();
    void stageCommit();
    void stageStoreBufferDrain();
    void stageIssue();
    void stageDispatch();
    void stageFetch();

    // ----- helpers ----------------------------------------------------------
    unsigned ruuIndex(unsigned pos) const; // age position -> slot
    unsigned agePos(unsigned slot) const;  // slot -> age position
    /** Whether @p slot holds a live entry (lies inside the ring). */
    bool inRing(unsigned slot) const { return agePos(slot) < ruuCount_; }
    RuuEntry &entryAt(unsigned pos);
    void squashAfter(unsigned pos);
    void rebuildRenameMap();
    /** Read operand @p operand (0 or 1) of the entry being dispatched
     *  into @p slot from source register @p src: from the register
     *  file (with its taint) or a completed producer, else link it to
     *  the producer's wakeup list. */
    void readOperand(RuuEntry &entry, unsigned slot, unsigned operand,
                     unsigned src);
    /** Hand a just-completed producer's value and taint to every
     *  operand linked to it; consumers whose last operand arrives
     *  join the ready set. */
    void wakeConsumers(unsigned producer);
    /** Set or clear @p slot in a one-bit-per-slot set (ready_,
     *  stores_). */
    static void
    setSlot(std::vector<std::uint64_t> &set, unsigned slot, bool on)
    {
        const std::uint64_t bit = std::uint64_t(1) << (slot % 64);
        if (on)
            set[slot / 64] |= bit;
        else
            set[slot / 64] &= ~bit;
    }
    /** First ready slot in [from, end), or end. */
    unsigned nextReady(unsigned from, unsigned end) const;
    /** Slot of the youngest store older than slot @p below: the last
     *  stores_ bit in age order in [ruuHead_, below), across the wrap
     *  when below < ruuHead_. kNoLink when there is none. */
    unsigned prevStore(unsigned below) const;
    /** LastRequest as visible at cycle_ (this core's view), sampled
     *  once per tick: a request posted during the tick arrives after
     *  cycle_, so the value cannot change within it. */
    AuthSeq lastRequestTag();
    /** Issue the memory op in @p slot, or refuse it: a load waits for
     *  an older store that has no address yet (parked on it) or that
     *  partly overlaps it (left in the ready set). */
    bool tryIssueMemOp(RuuEntry &entry, unsigned slot);
    /** Gate predicate: completed verification that also passed. */
    bool verifiedOk(AuthSeq seq) const;
    void raiseSecurityException(bool precise);
    bool checkEngineFailure();
    /** Record a pipeline instant at this cycle when tracing. */
    void
    tracePipeline(obs::PipelineEvent::Kind kind, std::uint64_t a,
                  std::uint64_t b = 0)
    {
        if (tracing_)
            pipelineTrace_.push_back({cycle_, kind, a, b});
    }

    // ----- stall attribution (observability) ------------------------------
    /** Why the commit stage stopped this cycle. */
    enum class CommitBlock : std::uint8_t { kNone, kAuthGate, kSbFull };
    /**
     * Charge the current cycle: commit-active, or exactly one stall
     * cause. Runs immediately after stageCommit, before the younger
     * stages mutate the RUU. Samples if the cycle ends a period.
     */
    void accountCycle();
    /** Pick the single cause of a zero-commit cycle. */
    obs::StallCause classifyStall();
    /** Count @p m cycles of every stage stop latched this tick (the
     *  commit, drain and dispatch blocks): with 1 after the tick's last
     *  stage, and for each stretch of an idle window, which repeats
     *  the tick's stops. The one place the five stop counters grow. */
    void chargeStops(std::uint64_t m);

    const sim::SimConfig &cfg_;
    secmem::MemHierarchy &hier_;
    /** The hierarchy's authentication engine: every gate, tag and
     *  taint the core reads comes from it. */
    const secmem::AuthEngine &eng_;
    /** Hierarchy client id all of this core's memory traffic carries. */
    unsigned client_ = 0;
    BranchPredictor bpred_;

    // Architectural state
    std::array<std::uint64_t, isa::kNumRegs> regs_{};
    /** Per-register dataflow taint (only set when a tainted value
     *  commits, i.e. under policies without a commit gate). */
    std::array<bool, isa::kNumRegs> regTainted_{};
    Addr fetchPc_;
    Cycle fetchStallUntil_ = 0;

    // RUU circular buffer
    std::vector<RuuEntry> ruu_;
    /** Per slot: the timing of the load that last issued there. */
    std::vector<LoadTiming> loadTiming_;
    unsigned ruuHead_ = 0;
    unsigned ruuCount_ = 0;
    std::uint64_t nextSeq_ = 1;
    /** reg -> RUU slot of its youngest in-flight writer (-1 = regfile) */
    std::array<int, isa::kNumRegs> renameMap_;
    unsigned lsqUsed_ = 0;

    // Event-driven issue and completion. Sized from ruuSize at
    // construction; nothing here allocates afterwards.
    /** Min-heap on (readyAt, seq) of every issued, not yet completed
     *  entry; a squash removes its entries, so the head is never
     *  stale. */
    std::vector<Completion> completions_;
    /** Ready set, one bit per slot: in the ring, not issued, operands
     *  read, not parked. Walked in age order from ruuHead_. */
    std::vector<std::uint64_t> ready_;
    /** One bit per slot holding a store, set at dispatch and cleared
     *  at commit and squash: disambiguation walks only these. */
    std::vector<std::uint64_t> stores_;
    /** Wakeup links. Node 2 * slot + operand stands for one waiting
     *  operand; firstWaiter_[producer slot] heads its list and
     *  nextWaiter_[node] continues it. Dispatch pushes at the front,
     *  so each list runs youngest consumer first. */
    std::vector<unsigned> firstWaiter_;
    std::vector<unsigned> nextWaiter_;
    /** Parked loads: a load disambiguation refused because an older
     *  store has no address yet leaves the ready set and waits on that
     *  store. firstParked_[store slot] heads its list, in parking
     *  order, and nextParked_[load slot] continues it; the store's
     *  issue returns the list to the ready set. */
    std::vector<unsigned> firstParked_;
    std::vector<unsigned> nextParked_;
    /** lastRequestTag()'s sample for this tick (tick() invalidates). */
    AuthSeq tickTag_ = kNoAuthSeq;
    bool tickTagSampled_ = false;

    /** Decoded instructions awaiting dispatch: 2 * fetchWidth. */
    Ring<FetchedInst> fetchQueue_;
    /** Committed stores awaiting release: storeBufferSize. */
    Ring<StoreBufEntry> storeBuffer_;

    /** Per FU class: the cycle its unpipelined unit frees up (0 for a
     *  pipelined class, whose units are budgeted per cycle). */
    std::array<Cycle, kNumFuClasses> unitFreeAt_{};

    Cycle cycle_ = 0;
    StopReason stopReason_ = StopReason::kRunning;
    bool exceptionPrecise_ = false;
    Cycle exceptionCycle_ = 0;
    std::uint64_t lastCommitCycle_ = 0;

    // Run-window bookkeeping (armed by beginRun)
    std::uint64_t runInstLimit_ = 0;
    Cycle runCycleLimit_ = 0;
    /** kInstLimit/kCycleLimit when a limit ended the window; limits do
     *  NOT set stopReason_, so the core stays kRunning and a later
     *  beginRun window continues from the same state. */
    StopReason runLimitHit_ = StopReason::kRunning;

    // Idle-window detection (event-driven loop)
    /** Did any stage change machine state this tick? */
    bool progress_ = false;
    /** Store-release drain blocked on its gate tag this tick. */
    bool drainBlocked_ = false;
    /** Which structure blocked dispatch this tick. */
    enum class DispatchBlock : std::uint8_t { kNone, kRuuFull, kLsqFull };
    DispatchBlock dispatchBlock_ = DispatchBlock::kNone;
    /** Stall cause accountCycle charged to this zero-commit tick. */
    obs::StallCause idleCause_ = obs::StallCause::kFrontend;

    // Co-simulation shadow (non-owning)
    FuncExecutor *shadow_ = nullptr;

    // Commit tracing
    std::FILE *traceOut_ = nullptr;
    std::uint64_t traceRemaining_ = 0;

    // Observability (passive: never feeds back into the model)
    bool tracing_ = false;
    std::vector<obs::PipelineEvent> pipelineTrace_;
    obs::IntervalSampler intervals_;
    unsigned commitsThisCycle_ = 0;
    /** Why the commit stage stopped this tick (kNone: it did not).
     *  classifyStall reads it on a tick that committed nothing. */
    CommitBlock commitBlock_ = CommitBlock::kNone;
    /** Gate tag the commit stage last stalled on (for the trace's
     *  gate-release event). */
    AuthSeq lastAuthBlockSeq_ = kNoAuthSeq;
    /** Cause charged while the frontend sits out a fetch stall. */
    obs::StallCause fetchStallCause_ = obs::StallCause::kFrontend;
    /** Data-arrival cycle of the stalled instruction fetch (splits
     *  memory wait from verification wait under authen-then-issue). */
    Cycle fetchDataReadyAt_ = 0;

    // Statistics
    StatGroup stats_;
    StatCounter committed_;
    StatCounter fetched_;
    StatCounter issued_;
    StatCounter branches_;
    StatCounter mispredicts_;
    StatCounter loadsIssued_;
    StatCounter storesCommitted_;
    StatCounter loadForwards_;
    StatCounter authCommitStalls_;
    StatCounter storeReleaseStalls_;
    StatCounter sbFullStalls_;
    StatCounter ruuFullStalls_;
    StatCounter lsqFullStalls_;
    StatCounter squashedInsts_;
    /** Instructions committed whose gate tag covered a failed request
     *  (empirical "authenticated processor state" check, Table 2). */
    StatCounter taintedCommits_;
    /** Stores released to memory with a failed-or-later tag
     *  (empirical "authenticated memory state" check, Table 2). */
    StatCounter taintedStoreDrains_;
    /** Cycles elapsed in the stats window ("core.cycles"). */
    StatCounter statCycles_;
    /** Cycles in which at least one instruction committed. */
    StatCounter commitActiveCycles_;
    /** Per-cause stall cycles ("core.stall.<cause>"). Invariant:
     *  their sum equals cycles - commit_active_cycles. */
    std::array<StatCounter, obs::kNumStallCauses> stallCounters_;
    StatDistribution ruuOccupancy_;
    StatDistribution sbOccupancy_;

  public:
    std::uint64_t taintedCommits() const { return taintedCommits_.value(); }
    std::uint64_t
    taintedStoreDrains() const
    {
        return taintedStoreDrains_.value();
    }
};

} // namespace acp::cpu

#endif // ACP_CPU_OOO_CORE_HH
