#include "cpu/ooo_core.hh"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/logging.hh"
#include "core/auth_policy.hh"
#include "isa/semantics.hh"

namespace acp::cpu
{

using core::gatesCommit;
using core::gatesFetch;
using core::gatesIssue;
using core::gatesWrite;
using core::verifies;

const char *
stopReasonName(StopReason reason)
{
    switch (reason) {
      case StopReason::kRunning:           return "running";
      case StopReason::kHalted:            return "halted";
      case StopReason::kSecurityException: return "security_exception";
      case StopReason::kInstLimit:         return "inst_limit";
      case StopReason::kCycleLimit:        return "cycle_limit";
    }
    return "?";
}

/** Cycles without a commit before the no-progress panic fires. */
constexpr Cycle kProgressPanicCycles = 1000000;

/** End of a wakeup or parked list; no slot. */
constexpr unsigned kNoLink = ~0u;

namespace
{

/** Highest set bit of @p set in [begin, end), or kNoLink. */
unsigned
lastSet(const std::vector<std::uint64_t> &set, unsigned begin, unsigned end)
{
    if (begin >= end)
        return kNoLink;
    const unsigned first = begin / 64;
    unsigned word = (end - 1) / 64;
    std::uint64_t bits =
        set[word] & (~std::uint64_t(0) >> (63 - (end - 1) % 64));
    for (;;) {
        if (word == first)
            bits &= ~std::uint64_t(0) << (begin % 64);
        if (bits)
            return word * 64 + 63 - unsigned(std::countl_zero(bits));
        if (word == first)
            return kNoLink;
        bits = set[--word];
    }
}

} // namespace

OooCore::OooCore(const sim::SimConfig &cfg, secmem::MemHierarchy &hier,
                 Addr entry, unsigned client, const std::string &name)
    : cfg_(cfg), hier_(hier), eng_(hier.ctrl().authEngine()),
      client_(client), fetchPc_(entry), ruu_(cfg.ruuSize),
      loadTiming_(cfg.ruuSize), ready_((cfg.ruuSize + 63) / 64, 0),
      stores_(ready_.size(), 0), firstWaiter_(cfg.ruuSize, kNoLink),
      nextWaiter_(2 * std::size_t(cfg.ruuSize), kNoLink),
      firstParked_(cfg.ruuSize, kNoLink), nextParked_(cfg.ruuSize, kNoLink),
      fetchQueue_(2 * std::size_t(cfg.fetchWidth)),
      storeBuffer_(cfg.storeBufferSize), intervals_(cfg.statsInterval),
      stats_(name)
{
    renameMap_.fill(-1);
    completions_.reserve(cfg.ruuSize);
    stats_.addCounter("committed", &committed_);
    stats_.addCounter("fetched", &fetched_);
    stats_.addCounter("issued", &issued_);
    stats_.addCounter("branches", &branches_);
    stats_.addCounter("mispredicts", &mispredicts_);
    stats_.addCounter("loads_issued", &loadsIssued_);
    stats_.addCounter("stores_committed", &storesCommitted_);
    stats_.addCounter("load_forwards", &loadForwards_);
    stats_.addCounter("auth_commit_stalls", &authCommitStalls_);
    stats_.addCounter("store_release_stalls", &storeReleaseStalls_);
    stats_.addCounter("sb_full_stalls", &sbFullStalls_);
    stats_.addCounter("ruu_full_stalls", &ruuFullStalls_);
    stats_.addCounter("lsq_full_stalls", &lsqFullStalls_);
    stats_.addCounter("squashed", &squashedInsts_);
    stats_.addCounter("tainted_commits", &taintedCommits_);
    stats_.addCounter("tainted_store_drains", &taintedStoreDrains_);
    stats_.addCounter("cycles", &statCycles_);
    stats_.addCounter("commit_active_cycles", &commitActiveCycles_);
    for (unsigned i = 0; i < obs::kNumStallCauses; ++i)
        stats_.addCounter(std::string("stall.") +
                              obs::stallCauseName(obs::StallCause(i)),
                          &stallCounters_[i]);
    stats_.addDistribution("ruu_occupancy", &ruuOccupancy_);
    stats_.addDistribution("sb_occupancy", &sbOccupancy_);
}

unsigned
OooCore::ruuIndex(unsigned pos) const
{
    // pos <= ruuCount_ <= ruuSize and ruuHead_ < ruuSize, so one
    // conditional subtract replaces the modulo on this hot path.
    unsigned idx = ruuHead_ + pos;
    if (idx >= cfg_.ruuSize)
        idx -= cfg_.ruuSize;
    return idx;
}

unsigned
OooCore::agePos(unsigned slot) const
{
    return slot >= ruuHead_ ? slot - ruuHead_
                            : slot + cfg_.ruuSize - ruuHead_;
}

OooCore::RuuEntry &
OooCore::entryAt(unsigned pos)
{
    return ruu_[ruuIndex(pos)];
}

unsigned
OooCore::nextReady(unsigned from, unsigned end) const
{
    if (from >= end)
        return end;
    unsigned word = from / 64;
    std::uint64_t bits = ready_[word] & (~std::uint64_t(0) << (from % 64));
    for (;;) {
        if (bits) {
            unsigned slot = word * 64 + unsigned(std::countr_zero(bits));
            return slot < end ? slot : end;
        }
        if (++word * 64 >= end)
            return end;
        bits = ready_[word];
    }
}

unsigned
OooCore::prevStore(unsigned below) const
{
    if (below < ruuHead_) {
        const unsigned slot = lastSet(stores_, 0, below);
        if (slot != kNoLink)
            return slot;
        below = cfg_.ruuSize;
    }
    return lastSet(stores_, ruuHead_, below);
}

AuthSeq
OooCore::lastRequestTag()
{
    if (!tickTagSampled_) {
        tickTag_ = eng_.lastArrivedBy(cycle_, client_);
        tickTagSampled_ = true;
    }
    return tickTag_;
}

bool
OooCore::verifiedOk(AuthSeq seq) const
{
    if (seq == kNoAuthSeq)
        return true;
    // Only this core's own failed requests poison its gates: a
    // neighbour core fetching a tampered line raises *its* exception,
    // not ours (per-client failure view).
    if (eng_.neverVerifies(seq, client_))
        return false;
    return eng_.verifiedBy(seq, cycle_);
}

void
OooCore::raiseSecurityException(bool precise)
{
    stopReason_ = StopReason::kSecurityException;
    exceptionPrecise_ = precise;
    exceptionCycle_ = cycle_;
}

bool
OooCore::checkEngineFailure()
{
    if (!verifies(cfg_.policy))
        return false;
    if (!eng_.anyFailure(client_) ||
        cycle_ < eng_.firstFailureCycle(client_))
        return false;
    raiseSecurityException(gatesCommit(cfg_.policy) ||
                           gatesIssue(cfg_.policy));
    return true;
}

void
OooCore::rebuildRenameMap()
{
    renameMap_.fill(-1);
    for (unsigned pos = 0; pos < ruuCount_; ++pos)
        if (const unsigned rd = entryAt(pos).inst.destReg())
            renameMap_[rd] = int(ruuIndex(pos));
}

void
OooCore::squashAfter(unsigned pos)
{
    while (ruuCount_ > pos + 1) {
        const unsigned slot = ruuIndex(ruuCount_ - 1);
        const isa::DecodedInst &inst = ruu_[slot].inst;
        if (inst.isLoad() || inst.isStore())
            --lsqUsed_;
        setSlot(ready_, slot, false);
        setSlot(stores_, slot, false);
        ++squashedInsts_;
        --ruuCount_;
    }
    // The squashed entries never complete: drop them from the queue,
    // so none is drained or woken on. A survivor's wakeup list runs
    // youngest first, so its squashed consumers are a prefix of it. A
    // parked list runs in parking order: unlink each squashed load, so
    // the store's issue cannot mark a refilled slot ready.
    std::erase_if(completions_, [this](const Completion &c) {
        return !inRing(c.slot);
    });
    std::make_heap(completions_.begin(), completions_.end(),
                   CompletesLater{});
    for (unsigned p = 0; p <= pos; ++p) {
        const unsigned slot = ruuIndex(p);
        unsigned &head = firstWaiter_[slot];
        while (head != kNoLink && !inRing(head / 2))
            head = nextWaiter_[head];
        for (unsigned *link = &firstParked_[slot]; *link != kNoLink;) {
            if (inRing(*link))
                link = &nextParked_[*link];
            else
                *link = nextParked_[*link];
        }
    }
    rebuildRenameMap();
    fetchQueue_.clear();
}

void
OooCore::readOperand(RuuEntry &entry, unsigned slot, unsigned operand,
                     unsigned src)
{
    bool &ready = operand == 0 ? entry.v1Ready : entry.v2Ready;
    std::uint64_t &value = operand == 0 ? entry.v1 : entry.v2;
    const int prod = src != 0 ? renameMap_[src] : -1;
    if (prod < 0) {
        value = regs_[src];
        entry.tainted = entry.tainted || regTainted_[src];
        ready = true;
    } else if (ruu_[prod].completed) {
        value = ruu_[prod].result;
        entry.tainted = entry.tainted || ruu_[prod].tainted;
        ready = true;
    } else {
        ready = false;
        const unsigned node = 2 * slot + operand;
        nextWaiter_[node] = firstWaiter_[prod];
        firstWaiter_[prod] = node;
    }
}

void
OooCore::wakeConsumers(unsigned producer)
{
    const RuuEntry &prod = ruu_[producer];
    for (unsigned node = firstWaiter_[producer]; node != kNoLink;
         node = nextWaiter_[node]) {
        const unsigned slot = node / 2;
        RuuEntry &entry = ruu_[slot];
        if (node % 2 == 0) {
            entry.v1 = prod.result;
            entry.v1Ready = true;
        } else {
            entry.v2 = prod.result;
            entry.v2Ready = true;
        }
        entry.tainted = entry.tainted || prod.tainted;
        if (entry.v1Ready && entry.v2Ready)
            setSlot(ready_, slot, true);
    }
    firstWaiter_[producer] = kNoLink;
}

bool
OooCore::tryIssueMemOp(RuuEntry &entry, unsigned slot)
{
    const unsigned bytes = isa::memAccessBytes(entry.inst.op);
    const Addr addr = entry.memAddr();

    if (entry.inst.isStore()) {
        entry.storeValue = entry.v2;
        entry.readyAt = cycle_ + 1;
        return true;
    }

    // Load: memory disambiguation against older stores, youngest
    // first (the RUU's, then the post-commit store buffer's); the
    // first overlapping store with a known address decides. One that
    // holds every loaded byte forwards them; a partial overlap waits
    // for the store to drain. Returns nothing for a disjoint store.
    auto forward = [&](Addr s_begin, unsigned s_bytes, std::uint64_t value,
                       bool tainted) -> std::optional<bool> {
        Addr s_end = s_begin + s_bytes;
        if (addr + bytes <= s_begin || s_end <= addr)
            return std::nullopt; // disjoint
        if (addr < s_begin || s_end < addr + bytes)
            return false; // partial overlap
        std::uint64_t raw = value >> (8 * (addr - s_begin));
        if (bytes < 8)
            raw &= (1ULL << (8 * bytes)) - 1;
        entry.result = isa::adjustLoadValue(entry.inst.op, raw);
        entry.readyAt = cycle_ + 2;
        // The data never left the chip: no bus window, and no auth
        // request to raise the gate tag.
        loadTiming_[slot] = {entry.readyAt, kCycleNever, kCycleNever};
        entry.tainted = entry.tainted || tainted;
        ++loadForwards_;
        return true;
    };
    for (unsigned prior = prevStore(slot); prior != kNoLink;
         prior = prevStore(prior)) {
        RuuEntry &older = ruu_[prior];
        if (!older.inst.isStore())
            acp_panic("%s: store set names slot %u, not a store",
                      name().c_str(), prior);
        if (!older.issued) {
            // Unknown store address: conservative stall. Park on the
            // store until it issues; nothing decides sooner.
            setSlot(ready_, slot, false);
            nextParked_[slot] = firstParked_[prior];
            firstParked_[prior] = slot;
            return false;
        }
        if (auto done = forward(older.memAddr(),
                                isa::memAccessBytes(older.inst.op),
                                older.storeValue, older.tainted))
            return *done;
    }
    for (std::size_t i = storeBuffer_.size(); i-- > 0;) {
        const StoreBufEntry &sb = storeBuffer_[i];
        if (sb.isOut)
            continue;
        if (auto done = forward(sb.addr, sb.bytes, sb.value, sb.tainted))
            return *done;
    }

    // Real memory access: this is where a speculative load's address
    // reaches the front-side bus (the side channel).
    AuthSeq gate = gatesFetch(cfg_.policy) ? lastRequestTag() : kNoAuthSeq;
    std::uint64_t raw = 0;
    secmem::Access access = hier_.readTimed(addr, bytes, cycle_ + 1, gate,
                                            raw, entry.seq, client_);
    entry.result = isa::adjustLoadValue(entry.inst.op, raw);
    entry.readyAt = access.ready;
    loadTiming_[slot] = {access.dataReady, access.busRequestAt,
                         access.busGrantAt};
    entry.gateTag = std::max(entry.gateTag, access.authSeq);
    entry.tainted = entry.tainted || eng_.requestFailed(access.authSeq);
    ++loadsIssued_;
    return true;
}

void
OooCore::stageComplete()
{
    // Every due entry is due at exactly cycle_: each latency is at
    // least a cycle, a tick drains the queue to its cycle, and an idle
    // skip never passes the queue's head. So the heap pops them oldest
    // first: the order of the predictor updates, and a mispredict
    // squashes every younger entry, due or not.
    while (!completions_.empty() && completions_.front().readyAt <= cycle_) {
        std::pop_heap(completions_.begin(), completions_.end(),
                      CompletesLater{});
        const unsigned slot = completions_.back().slot;
        completions_.pop_back();
        progress_ = true;
        RuuEntry &entry = ruu_[slot];
        entry.completed = true;
        wakeConsumers(slot);

        if (!entry.inst.isControl())
            continue;

        ++branches_;
        bpred_.update(entry.pc, entry.inst, entry.taken,
                      entry.taken ? entry.actualNext : 0);
        Addr predicted_next = entry.predTaken
                                  ? entry.predTarget
                                  : entry.pc + isa::kInstrBytes;
        if (predicted_next != entry.actualNext) {
            ++mispredicts_;
            std::uint64_t squashed_before = squashedInsts_.value();
            squashAfter(agePos(slot));
            tracePipeline(obs::PipelineEvent::Kind::kSquash, entry.pc,
                          squashedInsts_.value() - squashed_before);
            fetchPc_ = entry.actualNext;
            fetchStallUntil_ = cycle_ + kMispredictPenalty;
            fetchStallCause_ = obs::StallCause::kSquash;
            break; // the squash dropped every younger entry, due or not
        }
    }
}

void
OooCore::stageCommit()
{
    for (unsigned done = 0; done < cfg_.commitWidth && ruuCount_ > 0;
         ++done) {
        RuuEntry &entry = entryAt(0);
        if (!entry.completed)
            break;
        const isa::DecodedInst &inst = entry.inst;
        const unsigned rd = inst.destReg();

        if (gatesCommit(cfg_.policy)) {
            const AuthSeq gate = entry.gateTag;
            if (!verifiedOk(gate)) {
                commitBlock_ = CommitBlock::kAuthGate;
                if (done == 0)
                    lastAuthBlockSeq_ = gate;
                break;
            }
            if (gate != kNoAuthSeq && gate == lastAuthBlockSeq_) {
                // The tag the head was stalling on has verified.
                tracePipeline(obs::PipelineEvent::Kind::kGateRelease,
                              gate, entry.pc);
                lastAuthBlockSeq_ = kNoAuthSeq;
            }
        }

        if (inst.isStore() || entry.isOut()) {
            if (storeBuffer_.full()) {
                commitBlock_ = CommitBlock::kSbFull;
                break;
            }
            StoreBufEntry &sb = storeBuffer_.push_back();
            sb.tag = entry.issueTag;
            sb.tainted = entry.tainted;
            if (entry.isOut()) {
                sb.isOut = true;
                sb.value = entry.storeValue;
                sb.outPort = entry.outPort;
            } else {
                sb.addr = entry.memAddr();
                sb.bytes = isa::memAccessBytes(inst.op);
                sb.value = entry.storeValue;
                ++storesCommitted_;
            }
        }

        if (rd != 0) {
            regs_[rd] = entry.result;
            regTainted_[rd] = entry.tainted;
        }

        if (shadow_) {
            StepInfo ref = shadow_->step();
            if (ref.pc != entry.pc)
                acp_panic("cosim PC mismatch: core 0x%llx shadow 0x%llx "
                          "(%s)",
                          (unsigned long long)entry.pc,
                          (unsigned long long)ref.pc,
                          isa::disassemble(inst, entry.pc).c_str());
            if (rd != 0 && (!ref.wroteRd || ref.rdValue != entry.result))
                acp_panic("cosim value mismatch @0x%llx %s: core %llx "
                          "shadow %llx",
                          (unsigned long long)entry.pc,
                          isa::disassemble(inst, entry.pc).c_str(),
                          (unsigned long long)entry.result,
                          (unsigned long long)ref.rdValue);
            if (inst.isStore() &&
                (ref.memAddr != entry.memAddr() ||
                 ref.storeValue != entry.storeValue))
                acp_panic("cosim store mismatch @0x%llx",
                          (unsigned long long)entry.pc);
        }

        if (traceOut_ && traceRemaining_ > 0) {
            --traceRemaining_;
            std::fprintf(traceOut_, "%10llu  0x%08llx  %-28s",
                         (unsigned long long)cycle_,
                         (unsigned long long)entry.pc,
                         isa::disassemble(inst, entry.pc).c_str());
            if (rd != 0)
                std::fprintf(traceOut_, " x%u=0x%llx", rd,
                             (unsigned long long)entry.result);
            if (inst.isStore())
                std::fprintf(traceOut_, " [0x%llx]<=0x%llx",
                             (unsigned long long)entry.memAddr(),
                             (unsigned long long)entry.storeValue);
            if (entry.tainted)
                std::fprintf(traceOut_, " TAINTED");
            std::fputc('\n', traceOut_);
        }

        if (entry.tainted)
            ++taintedCommits_;
        tracePipeline(obs::PipelineEvent::Kind::kCommit, entry.pc,
                      entry.seq);
        progress_ = true;
        ++committed_;
        ++commitsThisCycle_;
        lastCommitCycle_ = cycle_;

        if (rd != 0 && renameMap_[rd] == int(ruuIndex(0)))
            renameMap_[rd] = -1;
        if (inst.isLoad() || inst.isStore())
            --lsqUsed_;
        const bool halt = inst.isHalt();
        setSlot(stores_, ruuIndex(0), false);
        if (++ruuHead_ >= cfg_.ruuSize)
            ruuHead_ = 0;
        --ruuCount_;

        if (halt) {
            stopReason_ = StopReason::kHalted;
            break;
        }
    }
}

void
OooCore::stageStoreBufferDrain()
{
    if (storeBuffer_.empty())
        return;
    StoreBufEntry &sb = storeBuffer_.front();
    if (gatesWrite(cfg_.policy) && !verifiedOk(sb.tag)) {
        drainBlocked_ = true;
        return;
    }
    progress_ = true;
    if (sb.tainted)
        ++taintedStoreDrains_;
    if (sb.isOut) {
        // Value leaves the chip through an output port: observable.
        hier_.ctrl().busTrace().record(cycle_, sb.value,
                                       mem::BusTxnKind::kIoOut, client_);
    } else {
        AuthSeq gate = gatesFetch(cfg_.policy) ? lastRequestTag() : kNoAuthSeq;
        hier_.writeTimed(sb.addr, sb.bytes, sb.value, cycle_, gate, client_);
    }
    storeBuffer_.pop_front();
}

void
OooCore::stageIssue()
{
    unsigned slots = cfg_.issueWidth;
    std::array<unsigned, kNumFuClasses> units = kFuUnits;

    // Walk the ready set in age order: from ruuHead_ to the end of the
    // ring, then across the wrap up to ruuHead_. Entries a functional
    // unit refuses stay in the set for the next tick, and so do loads
    // a partial overlap refuses; a load refused on an unissued store
    // parks on it and rejoins the set when that store issues.
    for (unsigned pass = 0; pass < 2 && slots > 0; ++pass) {
        const unsigned end = pass == 0 ? cfg_.ruuSize : ruuHead_;
        for (unsigned slot = nextReady(pass == 0 ? ruuHead_ : 0, end);
             slot < end && slots > 0; slot = nextReady(slot + 1, end)) {
            RuuEntry &entry = ruu_[slot];
            const isa::OpInfo &oi = entry.inst.info();
            const unsigned fu = unsigned(oi.fu);
            if (units[fu] == 0 || unitFreeAt_[fu] > cycle_)
                continue;

            // Sample the LastRequest register at issue: the tag consulted
            // by the write gate and the fetch gate (Section 4.2.2/4.2.4).
            // Per-client: only requests this core posted move its tag.
            entry.issueTag =
                verifies(cfg_.policy) ? lastRequestTag() : kNoAuthSeq;

            if (oi.fu == isa::FuClass::kMemPort) {
                // A refused memory op spends no port.
                if (!tryIssueMemOp(entry, slot))
                    continue;
            } else {
                isa::ExecResult res =
                    isa::execute(entry.inst, entry.v1, entry.v2, entry.pc);
                entry.result = res.value;
                entry.readyAt = cycle_ + oi.latency;
                if (oi.isBranch || oi.isJump) {
                    entry.taken = res.taken;
                    entry.actualNext = res.taken
                                           ? res.target
                                           : entry.pc + isa::kInstrBytes;
                }
                if (entry.isOut()) {
                    entry.storeValue = res.storeValue;
                    entry.outPort = res.outPort;
                }
            }
            --units[fu];
            if (!oi.pipelined)
                unitFreeAt_[fu] = cycle_ + oi.latency;

            entry.issued = true;
            setSlot(ready_, slot, false);
            if (oi.isStore) {
                // Its parked loads are younger: the walk reaches them
                // later in this pass or in the wrap pass, so each can
                // still issue this tick.
                for (unsigned load = firstParked_[slot]; load != kNoLink;
                     load = nextParked_[load])
                    setSlot(ready_, load, true);
                firstParked_[slot] = kNoLink;
            }
            completions_.push_back({entry.readyAt, entry.seq, slot});
            std::push_heap(completions_.begin(), completions_.end(),
                           CompletesLater{});
            progress_ = true;
            tracePipeline(obs::PipelineEvent::Kind::kIssue, entry.pc,
                          entry.seq);
            ++issued_;
            --slots;
        }
    }
}

void
OooCore::stageDispatch()
{
    for (unsigned done = 0; done < cfg_.decodeWidth && !fetchQueue_.empty();
         ++done) {
        if (ruuCount_ >= cfg_.ruuSize) {
            dispatchBlock_ = DispatchBlock::kRuuFull;
            break;
        }
        FetchedInst &fetched_inst = fetchQueue_.front();
        const isa::OpInfo &oi = fetched_inst.inst.info();
        bool is_mem = oi.isLoad || oi.isStore;
        if (is_mem && lsqUsed_ >= cfg_.ruuSize / 2) {
            dispatchBlock_ = DispatchBlock::kLsqFull;
            break;
        }

        // Write the slot in place, once: every field a stage can read
        // before this instruction issues. Issue writes the rest.
        unsigned slot = ruuIndex(ruuCount_);
        RuuEntry &entry = ruu_[slot];
        entry.seq = nextSeq_++;
        entry.pc = fetched_inst.pc;
        entry.inst = fetched_inst.inst;
        entry.predTarget = fetched_inst.predTarget;
        entry.gateTag = fetched_inst.fetchSeq;
        entry.issued = false;
        entry.completed = false;
        entry.predTaken = fetched_inst.predTaken;
        entry.tainted = fetched_inst.tainted;

        firstWaiter_[slot] = kNoLink;
        firstParked_[slot] = kNoLink;
        if (oi.isStore)
            setSlot(stores_, slot, true);
        readOperand(entry, slot, 0, entry.inst.srcReg1());
        readOperand(entry, slot, 1, entry.inst.srcReg2());
        if (entry.v1Ready && entry.v2Ready)
            setSlot(ready_, slot, true);
        if (const unsigned rd = entry.inst.destReg())
            renameMap_[rd] = int(slot);

        ++ruuCount_;
        progress_ = true;
        if (is_mem)
            ++lsqUsed_;
        fetchQueue_.pop_front();
    }
}

void
OooCore::stageFetch()
{
    if (cycle_ < fetchStallUntil_)
        return;

    unsigned budget = cfg_.fetchWidth;
    const cache::Cache &l1i = hier_.l1i(client_);
    const Addr line_mask = l1i.lineBytes() - 1;
    // Only the group's first word walks the I-TLB and the L1I. Every
    // later word lies in the same L1I line (pcs are word-aligned, and a
    // line's end ends the group), in the same cycle, with no hierarchy
    // access in between: its own walk would hit the I-TLB entry and the
    // L1I line the first walk left and return the same timing and
    // authSeq. So it reads the line's bytes, and the group counts it as
    // a hit when it ends. A faulting pc hands out no line: each of its
    // words walks, so each counts its translation fault.
    const std::uint8_t *line = nullptr;
    AuthSeq fetch_seq = kNoAuthSeq;
    bool fetch_failed = false;
    unsigned line_hits = 0;

    while (budget > 0 && !fetchQueue_.full()) {
        // Even a stalling probe mutates the hierarchy (caches, MSHRs,
        // bus, engine): every loop entry is progress.
        progress_ = true;
        std::uint32_t word = 0;
        if (line != nullptr) {
            word = secmem::lineWord(line, fetchPc_);
            ++line_hits;
        } else {
            AuthSeq gate =
                gatesFetch(cfg_.policy) ? lastRequestTag() : kNoAuthSeq;
            secmem::Access access =
                hier_.fetchTimed(fetchPc_, cycle_, gate, word, line, client_);
            // L1I hits are pipelined: data arriving within the hit
            // latency feeds this cycle's fetch group; anything slower
            // stalls.
            if (access.ready > cycle_ + l1i.hitLatency()) {
                fetchStallUntil_ = access.ready;
                // Attribute the upcoming frontend bubble: fetch-gate bus
                // delay, else plain miss latency; under
                // authen-then-issue the tail past data arrival is a
                // verification wait (classifyStall splits on
                // fetchDataReadyAt_).
                fetchStallCause_ = access.gateDelayed
                                       ? obs::StallCause::kFetchGate
                                       : obs::StallCause::kMemFetch;
                fetchDataReadyAt_ = access.dataReady;
                break;
            }
            // A request's verdict is fixed when the engine posts it, so
            // the group reads it once, here, for every word it fetches.
            fetch_seq = access.authSeq;
            fetch_failed = eng_.requestFailed(fetch_seq);
        }

        tracePipeline(obs::PipelineEvent::Kind::kFetch, fetchPc_);
        FetchedInst &fetched_inst = fetchQueue_.push_back();
        fetched_inst.pc = fetchPc_;
        fetched_inst.inst = isa::decode(word);
        fetched_inst.fetchSeq = fetch_seq;
        fetched_inst.tainted = fetch_failed;
        const isa::OpInfo &oi = fetched_inst.inst.info();
        if (oi.isBranch || oi.isJump) {
            Prediction pred = bpred_.predict(fetchPc_, fetched_inst.inst);
            fetched_inst.predTaken = pred.taken;
            fetched_inst.predTarget = pred.target;
        }
        ++fetched_;
        --budget;

        if (fetched_inst.predTaken) {
            fetchPc_ = fetched_inst.predTarget;
            break; // taken control flow ends the fetch group
        }
        fetchPc_ += isa::kInstrBytes;
        if ((fetchPc_ & line_mask) == 0)
            break; // I-cache line boundary ends the fetch group
    }
    if (line_hits > 0)
        hier_.countFetchHits(line_hits, client_);
}

obs::StallCause
OooCore::classifyStall()
{
    // The commit stage already knows why its head couldn't retire.
    if (commitBlock_ == CommitBlock::kAuthGate)
        return obs::StallCause::kAuthCommit;
    if (commitBlock_ == CommitBlock::kSbFull)
        return obs::StallCause::kSbFull;

    if (ruuCount_ == 0) {
        // Nothing in flight: the frontend owns the bubble.
        if (cycle_ < fetchStallUntil_) {
            if (fetchStallCause_ == obs::StallCause::kSquash ||
                fetchStallCause_ == obs::StallCause::kFetchGate)
                return fetchStallCause_;
            // Memory-driven fetch stall: once the line is physically
            // on-chip any remaining wait is the issue-gate's
            // verification tail, not memory latency.
            if (cycle_ >= fetchDataReadyAt_)
                return obs::StallCause::kAuthIssue;
            return obs::StallCause::kMemFetch;
        }
        return obs::StallCause::kFrontend;
    }

    RuuEntry &head = entryAt(0);
    if (!head.issued)
        return obs::StallCause::kIssueWait;
    if (head.inst.isLoad() && head.readyAt > cycle_) {
        // In-flight load at the head: charge verification only once
        // the data itself has arrived (authen-then-issue holds
        // usability until the verdict).
        const LoadTiming &load = loadTiming_[ruuIndex(0)];
        if (cycle_ >= load.dataReadyAt)
            return obs::StallCause::kAuthIssue;
        // While the line transfer sits in the shared-bus arbiter's
        // queue, the wait is contention, not intrinsic memory latency.
        if (load.busGrantAt != kCycleNever &&
            load.busGrantAt > load.busReqAt && cycle_ >= load.busReqAt &&
            cycle_ < load.busGrantAt)
            return obs::StallCause::kBusWait;
        return obs::StallCause::kMemData;
    }
    return obs::StallCause::kExec;
}

void
OooCore::accountCycle()
{
    ++statCycles_;
    if (commitsThisCycle_ > 0) {
        ++commitActiveCycles_;
    } else {
        // Latch the cause: if this tick turns out idle, the skipped
        // window charges it too (classification is constant between
        // wake boundaries — every branch cycle-compare is in the wake
        // set).
        idleCause_ = classifyStall();
        ++stallCounters_[unsigned(idleCause_)];
    }
    ruuOccupancy_.sample(ruuCount_);
    sbOccupancy_.sample(storeBuffer_.size());
    // The totals now cover every cycle up to and including cycle_.
    if (cycle_ + 1 == intervals_.nextBoundary())
        intervals_.sample(committed_.value(), stallCycles());
}

void
OooCore::finishIntervals()
{
    intervals_.finish(cycle_, committed_.value(), stallCycles());
}

obs::StallArray
OooCore::stallCycles() const
{
    obs::StallArray out{};
    for (unsigned i = 0; i < obs::kNumStallCauses; ++i)
        out[i] = stallCounters_[i].value();
    return out;
}

bool
OooCore::tick()
{
    if (stopReason_ != StopReason::kRunning)
        return false;
    if (checkEngineFailure())
        return false;

    progress_ = false;
    tickTagSampled_ = false;
    drainBlocked_ = false;
    dispatchBlock_ = DispatchBlock::kNone;
    stageComplete();
    commitsThisCycle_ = 0;
    commitBlock_ = CommitBlock::kNone;
    stageCommit();
    // Charge the cycle right after commit, before the younger stages
    // mutate the RUU: attribution sees the machine state the commit
    // stage actually faced.
    accountCycle();
    if (stopReason_ != StopReason::kRunning) {
        ++cycle_;
        return false;
    }
    stageStoreBufferDrain();
    stageIssue();
    stageDispatch();
    stageFetch();
    chargeStops(1);
    ++cycle_;

    if (cycle_ - lastCommitCycle_ > kProgressPanicCycles) {
        const RuuEntry *head = ruuCount_ ? &entryAt(0) : nullptr;
        acp_panic("%s: no commit progress for 1M cycles "
                  "(pc 0x%llx cycle %llu ruu %u commit-block %u "
                  "dispatch-block %u head{seq %llu pc 0x%llx "
                  "issued %d done %d readyAt %llu load %d store %d "
                  "v1 %d v2 %d})",
                  name().c_str(), (unsigned long long)fetchPc_,
                  (unsigned long long)cycle_, ruuCount_,
                  unsigned(commitBlock_), unsigned(dispatchBlock_),
                  head ? (unsigned long long)head->seq : 0ull,
                  head ? (unsigned long long)head->pc : 0ull,
                  head ? head->issued : 0, head ? head->completed : 0,
                  head ? (unsigned long long)head->readyAt : 0ull,
                  head ? head->inst.isLoad() : 0,
                  head ? head->inst.isStore() : 0,
                  head ? head->v1Ready : 0, head ? head->v2Ready : 0);
    }
    return true;
}

void
OooCore::beginRun(std::uint64_t max_insts, std::uint64_t max_cycles)
{
    runInstLimit_ = instsCommitted() + max_insts;
    runCycleLimit_ = cycle_ + max_cycles;
    runLimitHit_ = StopReason::kRunning;
}

StopReason
OooCore::runReason() const
{
    // Limits end the window without setting stopReason_ — the core
    // stays kRunning and a later window can continue.
    return runLimitHit_ != StopReason::kRunning ? runLimitHit_
                                                : stopReason_;
}

Cycle
OooCore::nextWakeCycle() const
{
    // Only boundaries at or after cycle_ count: a compare whose cycle
    // has already passed is settled and cannot flip again while the
    // machine is frozen, so skipping past it is exactly what ticking
    // every cycle would do. A boundary at exactly cycle_ yields wake ==
    // cycle_, i.e. "the very next tick is not idle — do not skip".
    Cycle wake = kCycleNever;
    auto consider = [&wake, this](Cycle c) {
        if (c >= cycle_ && c < wake)
            wake = c;
    };

    // The no-progress panic bounds every idle window: the tick at
    // lastCommitCycle_ + 1M must really run so the panic fires on the
    // same cycle as when every cycle is ticked.
    consider(lastCommitCycle_ + kProgressPanicCycles);

    // The earliest pending completion (also the head-commit / operand
    // / issue unblock event). The queue holds no squashed entry, so
    // its head never wakes the core early.
    if (!completions_.empty())
        consider(completions_.front().readyAt);

    if (ruuCount_ > 0) {
        const unsigned slot = ruuIndex(0);
        const RuuEntry &head = ruu_[slot];
        if (head.completed && gatesCommit(cfg_.policy)) {
            // Commit gate: the verdict lands at the engine's done
            // cycle (a failed tag never opens the gate, but then the
            // engine-failure wake below ends the run).
            if (head.gateTag != kNoAuthSeq)
                consider(eng_.doneCycle(head.gateTag));
        }
        if (head.issued && !head.completed && head.inst.isLoad()) {
            // Stall-attribution boundaries of an in-flight head load
            // (classifyStall branches on these compares).
            const LoadTiming &load = loadTiming_[slot];
            if (load.dataReadyAt != kCycleNever)
                consider(load.dataReadyAt);
            if (load.busReqAt != kCycleNever)
                consider(load.busReqAt);
            if (load.busGrantAt != kCycleNever)
                consider(load.busGrantAt);
        }
    }

    // Store-release gate on the buffer head.
    if (!storeBuffer_.empty() && gatesWrite(cfg_.policy))
        consider(eng_.doneCycle(storeBuffer_.front().tag));

    // Frontend restart + its attribution boundary (kMemFetch ->
    // kAuthIssue split at data arrival). Stale values from a finished
    // stall are in the past, which consider() filters.
    consider(fetchStallUntil_);
    consider(fetchDataReadyAt_);

    // Unpipelined units (free-at == cycle_ means issuable now).
    for (Cycle free_at : unitFreeAt_)
        consider(free_at);

    // A posted verification failure raises the security exception the
    // moment its verdict is due (only this core's own failures).
    if (verifies(cfg_.policy) && eng_.anyFailure(client_))
        consider(eng_.firstFailureCycle(client_));

    // The panic bound always qualifies (cycle_ <= lastCommitCycle_ +
    // 1M while running), so wake is never kCycleNever; the guard is
    // belt-and-braces.
    return wake == kCycleNever ? cycle_ : wake;
}

void
OooCore::chargeStops(std::uint64_t m)
{
    if (commitBlock_ == CommitBlock::kAuthGate)
        authCommitStalls_ += m;
    else if (commitBlock_ == CommitBlock::kSbFull)
        sbFullStalls_ += m;
    if (drainBlocked_)
        storeReleaseStalls_ += m;
    if (dispatchBlock_ == DispatchBlock::kRuuFull)
        ruuFullStalls_ += m;
    else if (dispatchBlock_ == DispatchBlock::kLsqFull)
        lsqFullStalls_ += m;
}

void
OooCore::accountIdleCycles(std::uint64_t n)
{
    // Charges the n skipped cycles [cycle_, cycle_ + n) exactly as
    // ticking them idle would. Machine state is frozen across
    // the window (no completion, no commit, no drain, no issue, no
    // dispatch, no hierarchy access), so each cycle charges the same
    // latched cause and stops, and a stretch of m cycles is charged in
    // O(1).
    auto charge = [this](std::uint64_t m) {
        statCycles_ += m;
        stallCounters_[unsigned(idleCause_)] += m;
        ruuOccupancy_.sample(ruuCount_, m);
        sbOccupancy_.sample(storeBuffer_.size(), m);
        chargeStops(m);
    };

    // Split the charge at each interval boundary inside the window, so
    // every sample sees the totals of exactly the cycles before it.
    const Cycle end = cycle_ + n;
    Cycle at = cycle_;
    while (intervals_.nextBoundary() <= end) {
        charge(intervals_.nextBoundary() - at);
        at = intervals_.nextBoundary();
        intervals_.sample(committed_.value(), stallCycles());
    }
    charge(end - at);
}

Cycle
OooCore::onWake(Cycle now)
{
    (void)now; // the core's clock is cycle_; now == cycle_ by contract
    if (stopReason_ != StopReason::kRunning)
        return kCycleNever;
    if (instsCommitted() >= runInstLimit_) {
        runLimitHit_ = StopReason::kInstLimit;
        return kCycleNever;
    }
    if (cycle_ >= runCycleLimit_) {
        runLimitHit_ = StopReason::kCycleLimit;
        return kCycleNever;
    }

    tick();
    if (stopReason_ != StopReason::kRunning)
        return kCycleNever;
    if (progress_)
        return cycle_; // active: simulate the very next cycle

    // Idle: nothing can change before the next wake boundary. Account
    // the skipped window and jump.
    Cycle wake = nextWakeCycle();
    if (wake > runCycleLimit_)
        wake = runCycleLimit_; // accounting stops at the limit
    if (wake > cycle_) {
        accountIdleCycles(wake - cycle_);
        cycle_ = wake;
    }
    return cycle_;
}

void
OooCore::traceCommits(std::FILE *out, std::uint64_t insts)
{
    traceOut_ = out;
    traceRemaining_ = insts;
}

} // namespace acp::cpu
