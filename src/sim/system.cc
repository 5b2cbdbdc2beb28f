#include "sim/system.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "core/auth_policy.hh"
#include "core/security_monitor.hh"
#include "isa/opcodes.hh"
#include "obs/trace_json.hh"

namespace acp::sim
{

namespace
{

/** One past the last byte of @p prog's loaded image (code and data
 *  segments, architectural addresses). */
Addr
imageEnd(const isa::Program &prog)
{
    Addr end = prog.codeBase + 4 * Addr(prog.code.size());
    for (const isa::DataSegment &seg : prog.data)
        end = std::max(end, seg.base + Addr(seg.bytes.size()));
    return end;
}

/** The address of each of @p progs, in order. */
std::vector<const isa::Program *>
addressesOf(const std::vector<isa::Program> &progs)
{
    std::vector<const isa::Program *> out;
    out.reserve(progs.size());
    for (const isa::Program &prog : progs)
        out.push_back(&prog);
    return out;
}

} // namespace

System::System(const SimConfig &cfg, const isa::Program &prog)
    : System(cfg, std::vector<const isa::Program *>(cfg.numCores, &prog))
{
}

System::System(const SimConfig &cfg, const std::vector<isa::Program> &progs)
    : System(cfg, addressesOf(progs))
{
}

System::System(const SimConfig &cfg,
               const std::vector<const isa::Program *> &progs)
    : cfg_(cfg), hier_(cfg_)
{
    if (cfg_.numCores == 0)
        acp_fatal("numCores 0: the system needs at least one core");
    if (progs.size() != cfg_.numCores)
        acp_fatal("System needs one program per core (%u cores, %zu "
                  "programs)",
                  cfg_.numCores, progs.size());
    // An empty RUU dispatches nothing, and below 2 entries the LSQ
    // (half the RUU) never admits a load: either core would idle into
    // the no-progress panic.
    if (cfg_.ruuSize < 2)
        acp_fatal("ruuSize %u: the core needs at least 2 RUU entries "
                  "(the LSQ gets half)",
                  cfg_.ruuSize);
    // A zero width stalls its stage for good, and the fetch queue and
    // the store buffer are rings of 2 * fetchWidth and storeBufferSize
    // slots: each needs at least one.
    const std::pair<const char *, unsigned> widths[] = {
        {"fetchWidth", cfg_.fetchWidth},
        {"decodeWidth", cfg_.decodeWidth},
        {"issueWidth", cfg_.issueWidth},
        {"commitWidth", cfg_.commitWidth},
        {"storeBufferSize", cfg_.storeBufferSize},
    };
    for (const auto &[field, value] : widths)
        if (value == 0)
            acp_fatal("%s 0: the core needs at least 1", field);

    // Core i is hierarchy client i.
    slots_.resize(progs.size());
    for (unsigned i = 0; i < slots_.size(); ++i) {
        CoreSlot &slot = slots_[i];
        // An image past its slice would land in the next client's
        // slice (or past the end of memory) and be overwritten there.
        const isa::Program &prog = *progs[i];
        const Addr end = imageEnd(prog);
        if (end > hier_.clientStride())
            acp_fatal("core %u: workload '%s' image ends at %#llx, past "
                      "its %#llx-byte address slice (%u cores share "
                      "%#llx bytes)",
                      i, prog.name.c_str(), (unsigned long long)end,
                      (unsigned long long)hier_.clientStride(),
                      cfg_.numCores,
                      (unsigned long long)cfg_.memoryBytes);
        // Provision the program image into this client's slice of
        // external memory; the reference machine runs the same image
        // at architectural (un-offset) addresses.
        hier_.loadProgram(prog, hier_.clientBase(i));
        slot.refMem = std::make_unique<cpu::FlatMem>(cfg_.memoryBytes);
        slot.refMem->loadProgram(prog);
        slot.refExec = std::make_unique<cpu::FuncExecutor>(*slot.refMem,
                                                           prog.entry);
    }

    if (cfg_.profileEnabled) {
        profiler_ = std::make_unique<obs::PathProfiler>();
        hier_.ctrl().setProfiler(profiler_.get());
        // The profile's leak audit reads the adversary-visible
        // address stream.
        hier_.ctrl().busTrace().enable(true);
    }
}

std::uint64_t
System::fastForward(std::uint64_t insts)
{
    if (slots_[0].core)
        acp_fatal("fastForward must precede timed execution");

    std::uint64_t done = 0;
    for (unsigned i = 0; i < slots_.size(); ++i) {
        cpu::FuncExecutor &exec = *slots_[i].refExec;
        std::uint64_t core_done = 0;
        while (core_done < insts && !exec.halted()) {
            cpu::StepInfo info = exec.step();
            ++core_done;
            // Mirror the access stream into the shared hierarchy (as
            // this core's client) to warm caches and keep the on-chip
            // plaintext state consistent.
            hier_.fetchWarm(info.pc, i);
            if (info.inst.isLoad())
                hier_.readWarm(info.memAddr, info.memBytes, i);
            else if (info.isStore)
                hier_.writeWarm(info.memAddr, info.memBytes,
                                info.storeValue, i);
        }
        done += core_done;
    }
    return done;
}

void
System::createCores()
{
    for (unsigned i = 0; i < slots_.size(); ++i) {
        CoreSlot &slot = slots_[i];
        std::string name =
            slots_.size() == 1 ? "core"
                               : "cpu" + std::to_string(i) + ".core";
        slot.core = std::make_unique<cpu::OooCore>(
            cfg_, hier_, slot.refExec->pc(), i, name);
        for (unsigned reg = 0; reg < 32; ++reg)
            slot.core->setReg(reg, slot.refExec->reg(reg));
        if (cosim_)
            slot.core->setCosimShadow(slot.refExec.get());
        if (tracing_)
            slot.core->enableTrace();
        hostSched_.addCounter(name + ".wakes", &slot.wakes);
        hostSched_.addDistribution(name + ".jump", &slot.jump);
    }
}

cpu::OooCore &
System::core(unsigned i)
{
    if (!slots_[0].core)
        createCores();
    return *slots_.at(i).core;
}

void
System::enableCosim()
{
    cosim_ = true;
    for (CoreSlot &slot : slots_)
        if (slot.core)
            slot.core->setCosimShadow(slot.refExec.get());
}

void
System::enableTrace()
{
    tracing_ = true;
    hier_.ctrl().keepRetired();
    for (CoreSlot &slot : slots_)
        if (slot.core)
            slot.core->enableTrace();
}

bool
System::writeTrace(const std::string &path)
{
    std::vector<obs::PipelineTrack> tracks;
    for (CoreSlot &slot : slots_)
        if (slot.core)
            tracks.push_back(
                {slot.core->name(), &slot.core->pipelineTrace()});
    return obs::writeChromeTrace(hier_.ctrl().retired(), tracks, path);
}

RunResult
System::measureTimed(std::uint64_t max_insts, std::uint64_t max_cycles)
{
    core(0); // create every core

    const unsigned n = unsigned(slots_.size());
    std::vector<std::uint64_t> insts0(n);
    std::vector<Cycle> cycles0(n);
    std::vector<Cycle> next(n); // each core's next cycle to run
    for (unsigned i = 0; i < n; ++i) {
        cpu::OooCore &c = *slots_[i].core;
        insts0[i] = c.instsCommitted();
        cycles0[i] = c.cycles();
        c.beginRun(max_insts, max_cycles);
        next[i] = c.cycles();
    }

    // Run the core with the earliest next cycle, lowest id on a tie,
    // until every core has returned kCycleNever. Idle cycles are never
    // visited: onWake accounts a stall window analytically and jumps.
    for (;;) {
        unsigned pick = 0;
        for (unsigned i = 1; i < n; ++i)
            if (next[i] < next[pick])
                pick = i;
        const Cycle now = next[pick];
        if (now == kCycleNever)
            break;
        CoreSlot &slot = slots_[pick];
        if (cfg_.hostStats) {
            ++slot.wakes;
            if (slot.lastWake != kCycleNever)
                slot.jump.sample(now - slot.lastWake);
            slot.lastWake = now;
        }
        next[pick] = slot.core->onWake(now);
        if (next[pick] <= now)
            acp_fatal("%s asked to run at %llu from %llu (time must "
                      "advance)",
                      slot.core->name().c_str(),
                      (unsigned long long)next[pick],
                      (unsigned long long)now);
    }

    RunResult res;
    res.reason = slots_[0].core->runReason();
    for (unsigned i = 0; i < n; ++i) {
        cpu::OooCore &c = *slots_[i].core;
        res.insts += c.instsCommitted() - insts0[i];
        std::uint64_t cyc = c.cycles() - cycles0[i];
        if (cyc > res.cycles)
            res.cycles = cyc;
        // The window is over: emit the partial tail interval so
        // interval cycle counts sum to the window length.
        c.finishIntervals();
    }
    res.ipc = res.cycles ? double(res.insts) / double(res.cycles) : 0.0;
    return res;
}

obs::PathProfile
System::pathProfile()
{
    if (!profiler_)
        acp_fatal("pathProfile() requires cfg.profileEnabled");
    obs::StallArray stalls{};
    bool have_stalls = false;
    for (CoreSlot &slot : slots_) {
        if (!slot.core)
            continue;
        have_stalls = true;
        obs::StallArray s = slot.core->stallCycles();
        for (unsigned c = 0; c < obs::kNumStallCauses; ++c)
            stalls[c] += s[c];
    }
    obs::PathProfile profile = profiler_->finalize(
        have_stalls ? &stalls : nullptr, core::policyName(cfg_.policy));
    secmem::SecureMemCtrl &ctrl = hier_.ctrl();
    profile.audit = core::auditLeaks(ctrl.busTrace().txns(),
                                     ctrl.firstBadFill());
    return profile;
}

std::vector<StatGroup *>
System::statGroups()
{
    std::vector<StatGroup *> groups;
    for (CoreSlot &slot : slots_)
        if (slot.core)
            groups.push_back(&slot.core->stats());
    for (StatGroup *g : hier_.statGroups())
        groups.push_back(g);
    if (cfg_.hostStats)
        groups.push_back(&hostSched_);
    return groups;
}

std::string
System::dumpStats()
{
    std::string out;
    for (StatGroup *g : statGroups())
        g->dump(out);
    return out;
}

void
System::visitStats(StatVisitor &visitor)
{
    for (StatGroup *g : statGroups())
        g->visit(visitor);
}

} // namespace acp::sim
