/**
 * @file
 * Top-level simulated system: N secure out-of-order cores (cfg.
 * numCores; 1 is the classic setup) registered as clients of ONE
 * shared secure memory hierarchy — one L2, one secure memory
 * controller, one bus arbiter, one DRAM, one auth engine. Each core
 * has its own functional *reference machine* (FuncExecutor + FlatMem)
 * used for SimPoint-style fast-forwarding with cache warmup and for
 * commit-time co-simulation.
 *
 * Typical use (mirrors the paper's methodology, Section 5.1):
 *
 *   sim::System system(cfg, workload);
 *   system.fastForward(200'000);          // warm caches functionally
 *   auto res = system.measureTimed(1'000'000, 50'000'000);
 *   printf("IPC %.3f\n", res.ipc);
 */

#ifndef ACP_SIM_SYSTEM_HH
#define ACP_SIM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/flat_mem.hh"
#include "cpu/func_executor.hh"
#include "cpu/ooo_core.hh"
#include "isa/program.hh"
#include "obs/path_profiler.hh"
#include "secmem/mem_hierarchy.hh"
#include "sim/config.hh"

namespace acp::sim
{

/** Outcome of a timed measurement window. For a multi-core run,
 *  insts is the sum over cores, cycles the maximum over cores, ipc
 *  the aggregate (sum / max), and reason core 0's outcome. */
struct RunResult
{
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    double ipc = 0.0;
    cpu::StopReason reason = cpu::StopReason::kRunning;
};

/** The system. */
class System
{
  public:
    /** Single-program convenience: every core runs @p prog (each in
     *  its own address-space slice). Like the constructor below, it
     *  reads the program only while provisioning it and keeps no
     *  reference to it. */
    System(const SimConfig &cfg, const isa::Program &prog);

    /** One program per core; progs.size() must equal cfg.numCores. */
    System(const SimConfig &cfg, const std::vector<isa::Program> &progs);

    /**
     * Execute @p insts instructions on EACH core's reference machine
     * while warming the shared cache hierarchy (tags + data). Must
     * precede core(). Returns the total instructions fast-forwarded
     * (== the per-core count for a single-core system).
     */
    std::uint64_t fastForward(std::uint64_t insts);

    /** Timed core @p i, created (all together) at the current
     *  architectural point. */
    cpu::OooCore &core(unsigned i);
    /** Core 0 (THE core of a single-core system). */
    cpu::OooCore &core() { return core(0); }

    unsigned numCores() const { return unsigned(slots_.size()); }

    /** Check every committed instruction against its reference. */
    void enableCosim();

    /** Record from now on what the Chrome trace draws: the
     *  controller keeps every retired transaction and each core its
     *  pipeline instants. Passive, like the profiler. */
    void enableTrace();

    /** Write what enableTrace() recorded as a Chrome trace-event file
     *  (obs::writeChromeTrace); false if it could not be written. */
    bool writeTrace(const std::string &path);

    /** Run the timed cores for a measurement window (every core gets
     *  the same per-core limits). The cores run earliest next cycle
     *  first; same-cycle ties go to the lowest core id, so cpu0's
     *  same-cycle memory requests reach the shared bus first. */
    RunResult measureTimed(std::uint64_t max_insts,
                           std::uint64_t max_cycles);

    secmem::MemHierarchy &hier() { return hier_; }
    const SimConfig &config() const { return cfg_; }

    /** Dump all statistics as text, group by group in statGroups()
     *  order. */
    std::string dumpStats();

    /** Feed every statistic to @p visitor, typed, in dump order. */
    void visitStats(StatVisitor &visitor);

    /** Finalized profile snapshot: the cores' summed stall counters
     *  (if timed cores ran) plus the leak audit, core::auditLeaks over
     *  the live bus trace. Call only when profiling is enabled. */
    obs::PathProfile pathProfile();

  private:
    /** Both public constructors: core i runs *progs[i]. */
    System(const SimConfig &cfg,
           const std::vector<const isa::Program *> &progs);

    /** One core's private slice of the system: its reference
     *  machine, (once timed execution starts) its OooCore, and its
     *  sim.host.sched counters. Slot i is hierarchy client i; slots_
     *  is sized once, so hostSched_ may point at the counters. */
    struct CoreSlot
    {
        std::unique_ptr<cpu::FlatMem> refMem;
        std::unique_ptr<cpu::FuncExecutor> refExec;
        std::unique_ptr<cpu::OooCore> core;

        // Host telemetry (cfg.hostStats; never a simulation result)
        /** Times the loop called this core's onWake. */
        StatCounter wakes;
        /** Simulated cycles between consecutive wakes (the event-loop
         *  "jump length"; count == wakes - 1). */
        StatDistribution jump;
        Cycle lastWake = kCycleNever;
    };

    /** Create every timed core at once, cpu0 first, and register its
     *  sim.host.sched counters. */
    void createCores();

    /** Every stat group in dump order: the cores' (once they exist),
     *  the hierarchy's and the controller's, then sim.host.sched when
     *  cfg.hostStats is set. */
    std::vector<StatGroup *> statGroups();

    SimConfig cfg_;
    secmem::MemHierarchy hier_;
    std::vector<CoreSlot> slots_;
    /** Host telemetry: each timed core's wakes and jump lengths. */
    StatGroup hostSched_{"sim.host.sched"};
    bool cosim_ = false;

    // Observability (passive; all optional)
    bool tracing_ = false;
    std::unique_ptr<obs::PathProfiler> profiler_;
};

} // namespace acp::sim

#endif // ACP_SIM_SYSTEM_HH
