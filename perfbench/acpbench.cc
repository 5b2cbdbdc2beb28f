/**
 * @file
 * Host-speed benchmark of the secure-processor simulator (see
 * README.md beside this file for the workloads and the metric ->
 * layer -> workload map).
 *
 *   acpbench --workload fig7_int|fp_long|attacks --seed N --seconds S
 *            --trace 0|1 --reference DIR [--out DIR] [--record]
 *
 * --trace 0 measures the end-to-end metrics: closed batches of ops
 * (simulated points or exploit runs) through the public entry points
 * exp::submit and sim::runExploit / recoverSecretViaBinarySearch,
 * repeated for S seconds, medians reported. --trace 1 alternates
 * untraced batches with traced ones that run the benchmark's own copy
 * of each op's call sequence, with a span around every layer call,
 * and reports the per-layer metrics. Every op is checked against the
 * reference stored in DIR; the last stdout line is one JSON object
 * {correct, attempted, failed, metrics}. --record rewrites the
 * reference of one workload instead.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "core/auth_policy.hh"
#include "core/security_monitor.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/line_mac.hh"
#include "exp/request.hh"
#include "exp/result_codec.hh"
#include "exp/result_store.hh"
#include "exp/submit.hh"
#include "mem/txn.hh"
#include "obs/manifest.hh"
#include "sim/attack_scenarios.hh"
#include "sim/system.hh"
#include "workloads/victims.hh"
#include "workloads/workloads.hh"

using namespace acp;
using core::AuthPolicy;
using sim::Exploit;

namespace
{

// ---------------------------------------------------------------------
// Clocks and small helpers
// ---------------------------------------------------------------------

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process user+sys CPU seconds, all threads. */
double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Closed batch: @p jobs workers each take the next op index when
 *  their last one finishes (the same discipline as exp::submit). */
void
runPool(std::size_t n, unsigned jobs,
        const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (std::size_t i; (i = next.fetch_add(1)) < n;)
            fn(i);
    };
    unsigned threads = unsigned(std::min<std::size_t>(jobs, n));
    if (threads <= 1) {
        worker();
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (std::thread &thread : pool)
        thread.join();
}

// ---------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------

/** Number of stored input sets per workload; --seed N selects set
 *  N mod kInputSets, and the reference holds every set. */
constexpr unsigned kInputSets = 5;

/** Workload data seeds of the sweep input sets (set 0 = the default
 *  seed the committed BENCH_*.json recordings use). */
constexpr std::uint64_t kDataSeeds[kInputSets] = {42, 1042, 2042, 3042,
                                                 4042};

/** Exploit victim seeds per attacks input set, and the bits of the
 *  secret the binary-search recovery reconstructs. */
constexpr unsigned kAttackSeedsPerSet = 8;
constexpr unsigned kRecoveryBits = 16;

struct Window
{
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
};

constexpr Window kFig7Window{30000, 60000};
constexpr Window kFpLongWindow{200000, 600000};
/** The 4-core mix runs a quarter of the window per core, so it ends
 *  near the single-core points instead of setting the batch's end. */
constexpr Window kMixWindow{50000, 150000};
constexpr std::uint64_t kWorkingSetBytes = 2ULL << 20;

sim::SimConfig
paperConfig()
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 64ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    return cfg;
}

exp::Request
baseRequest(std::uint64_t data_seed, Window window)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = kWorkingSetBytes;
    params.seed = data_seed;
    exp::Request req;
    req.base(paperConfig()).params(params).window(window.warmup,
                                                  window.measure);
    req.progress = false;
    return req;
}

/** The sweep request of @p workload for input set @p set. */
exp::Request
sweepRequest(const std::string &workload, unsigned set)
{
    const std::uint64_t data_seed = kDataSeeds[set];
    if (workload == "fig7_int") {
        // Fig. 7(a): 9 INT kernels x (baseline + the six schemes).
        exp::Request req = baseRequest(data_seed, kFig7Window);
        req.workloads(workloads::intNames());
        for (AuthPolicy policy :
             {AuthPolicy::kBaseline, AuthPolicy::kAuthThenIssue,
              AuthPolicy::kAuthThenWrite, AuthPolicy::kAuthThenCommit,
              AuthPolicy::kAuthThenFetch, AuthPolicy::kCommitPlusFetch,
              AuthPolicy::kCommitPlusObfuscation})
            req.variant(core::policyName(policy),
                        [policy](sim::SimConfig &c) { c.policy = policy; });
        return req;
    }
    // fp_long: write-back-heavy FP kernels under authen-then-commit
    // with and without the hash tree, plus one 4-core mix point.
    exp::Request req = baseRequest(data_seed, kFpLongWindow);
    req.workloads({"swim", "mgrid", "applu"});
    req.variant("commit", [](sim::SimConfig &c) {
        c.policy = AuthPolicy::kAuthThenCommit;
    });
    req.variant("commit+tree", [](sim::SimConfig &c) {
        c.policy = AuthPolicy::kAuthThenCommit;
        c.hashTreeEnabled = true;
    });
    exp::Request mix = baseRequest(data_seed, kMixWindow);
    mix.workload("mcf+swim+gcc+mgrid");
    mix.variant("commit+fetch", [](sim::SimConfig &c) {
        c.policy = AuthPolicy::kCommitPlusFetch;
    });
    std::vector<exp::Point> mix_points = mix.points();
    // The mix point goes first: it is the longest op, so starting it
    // first keeps it off the batch's tail.
    req.decorate = [mix_points](std::vector<exp::Point> &points) {
        points.insert(points.begin(), mix_points.begin(), mix_points.end());
    };
    return req;
}

/** One attacks op: a Table-2 cell run or a full secret recovery. */
struct AttackOp
{
    bool recovery = false;
    Exploit exploit = Exploit::kPointerConversion;
    AuthPolicy policy = AuthPolicy::kBaseline;
    /** Victim seed (cell run) or planted secret (recovery). */
    std::uint64_t seed = 0;
};

const std::vector<AuthPolicy> &
tablePolicies()
{
    static const std::vector<AuthPolicy> policies = {
        AuthPolicy::kAuthThenIssue,   AuthPolicy::kAuthThenWrite,
        AuthPolicy::kAuthThenCommit,  AuthPolicy::kAuthThenFetch,
        AuthPolicy::kCommitPlusFetch, AuthPolicy::kCommitPlusObfuscation,
        AuthPolicy::kBaseline,
    };
    return policies;
}

std::vector<AttackOp>
attackOps(unsigned set)
{
    // The recoveries go first: each is a serial chain of probes, so
    // the longest ones must not start at the batch's tail.
    std::vector<AttackOp> ops;
    const std::uint64_t secret =
        (0x3a5c + 0x2f1bULL * set) & ((1ULL << kRecoveryBits) - 1);
    for (AuthPolicy policy : tablePolicies())
        ops.push_back({true, Exploit::kBinarySearch, policy, secret});
    for (Exploit exploit :
         {Exploit::kPointerConversion, Exploit::kBinarySearch,
          Exploit::kDisclosingKernel, Exploit::kIoDisclosure})
        for (AuthPolicy policy : tablePolicies())
            for (unsigned s = 0; s < kAttackSeedsPerSet; ++s)
                ops.push_back({false, exploit, policy,
                               1 + set * kAttackSeedsPerSet + s});
    return ops;
}

// ---------------------------------------------------------------------
// Op signatures: the simulated outcome an op is checked on
// ---------------------------------------------------------------------

std::string
pointKeyOf(const exp::Point &point)
{
    return point.workload + "/" + point.label;
}

std::string
sweepSignature(const exp::Point &point, const exp::Result &result)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "ipc=%.17g insts=%" PRIu64
                  " cycles=%" PRIu64 " reason=%s digest=%s",
                  result.run.ipc, result.run.insts, result.run.cycles,
                  cpu::stopReasonName(result.run.reason),
                  exp::pointDigest(point).c_str());
    return buf;
}

std::string
attackKey(const AttackOp &op)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s/%s/%" PRIu64,
                  op.recovery ? "recovery" : sim::exploitName(op.exploit),
                  core::policyName(op.policy), op.seed);
    return buf;
}

std::string
scenarioSignature(const sim::ScenarioResult &r)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "leaked=%d exception=%d precise=%d tainted_commits=%" PRIu64
        " tainted_drains=%" PRIu64 " exc_cycle=%" PRIu64
        " first_leak=%" PRIu64 " leak_count=%zu cycles=%" PRIu64
        " audit_open=%d audit_novel=%" PRIu64 " audit_txns=%" PRIu64,
        int(r.leaked), int(r.exceptionRaised), int(r.precise),
        r.taintedCommits, r.taintedStoreDrains,
        std::uint64_t(r.exceptionCycle), std::uint64_t(r.firstLeakCycle),
        r.leakCount, std::uint64_t(r.cyclesRun), int(r.audit.leakWindowOpen),
        r.audit.novelExposuresInGap, r.audit.busTxnsScanned);
    return buf;
}

std::string
recoverySignature(const sim::BinarySearchRecovery &r)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "recovered=%" PRIu64 " trials=%u success=%d",
                  r.recovered, r.trials, int(r.success));
    return buf;
}

// ---------------------------------------------------------------------
// Reference: one line per op, "<set> <key> <signature> insts_total=N"
// ---------------------------------------------------------------------

struct RefEntry
{
    std::string signature;
    /** Committed simulated instructions (fast-forward + timed). */
    std::uint64_t insts = 0;
};

using Reference = std::map<std::string, RefEntry>; // "<set> <key>"

std::string
refPath(const std::string &dir, const std::string &workload)
{
    return dir + "/" + workload + ".txt";
}

Reference
loadReference(const std::string &dir, const std::string &workload)
{
    std::ifstream in(refPath(dir, workload));
    if (!in)
        acp_fatal("no reference at %s", refPath(dir, workload).c_str());
    Reference ref;
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t sp1 = line.find(' ');
        std::size_t sp2 = line.find(' ', sp1 + 1);
        std::size_t ins = line.rfind(" insts_total=");
        if (sp1 == std::string::npos || sp2 == std::string::npos ||
            ins == std::string::npos || ins < sp2)
            acp_fatal("malformed reference line: %s", line.c_str());
        RefEntry e;
        e.signature = line.substr(sp2 + 1, ins - sp2 - 1);
        e.insts = std::strtoull(line.c_str() + ins + 13, nullptr, 10);
        ref[line.substr(0, sp2)] = e;
    }
    return ref;
}

std::string
refKey(unsigned set, const std::string &key)
{
    return std::to_string(set) + " " + key;
}

// ---------------------------------------------------------------------
// Spans (traced pass only)
// ---------------------------------------------------------------------

struct Span
{
    const char *name;
    double start;
    double end;
    /** Index of the causing span in the same op's list (-1 = root). */
    int parent;
    std::size_t op;
};

/** Spans of one op, recorded on the thread running it. An op has a
 *  root span per stretch of work ("op" on its worker, plus "prepass"
 *  for a sweep's serial store lookup); layer calls are its children. */
class OpTrace
{
  public:
    explicit OpTrace(std::size_t op) : op_(op) {}

    void
    begin(const char *root)
    {
        root_ = int(spans_.size());
        spans_.push_back({root, wallNow(), 0.0, -1, op_});
    }

    void end() { spans_[std::size_t(root_)].end = wallNow(); }

    /** Time @p fn as a child of the current root span. */
    template <class F>
    auto
    span(const char *name, F &&fn)
    {
        std::size_t idx = spans_.size();
        spans_.push_back({name, wallNow(), 0.0, root_, op_});
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            spans_[idx].end = wallNow();
        } else {
            auto value = fn();
            spans_[idx].end = wallNow();
            return value;
        }
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::size_t op_;
    int root_ = -1;
    std::vector<Span> spans_;
};

/** Per-layer counts of one traced op (summed over a batch). */
using Counts = std::map<std::string, double>;

/** Drop a "cpuN." per-core prefix so multi-core stats sum with the
 *  single-core names. */
std::string
unprefixed(const std::string &name)
{
    if (name.rfind("cpu", 0) == 0) {
        std::size_t dot = name.find('.');
        if (dot != std::string::npos && dot > 3 &&
            std::all_of(name.begin() + 3, name.begin() + long(dot),
                        [](char c) { return c >= '0' && c <= '9'; }))
            return name.substr(dot + 1);
    }
    return name;
}

/** StatVisitor copy of exp::simulatePoint's capture: fills a Result
 *  exactly as the untraced path does, and sends the sim.host.*
 *  self-metrics (present only with hostStats) to @p host instead. */
class Capture : public StatVisitor
{
  public:
    Capture(exp::Result &out, Counts &host) : out_(out), host_(host) {}

    void
    onCounter(const std::string &name, std::uint64_t value) override
    {
        if (name.rfind("sim.host.", 0) == 0)
            host_[name] += double(value);
        else
            out_.counters[name] = value;
    }

    void
    onAverage(const std::string &name, const StatAverage &avg) override
    {
        if (name.rfind("sim.host.", 0) == 0)
            return;
        out_.averages[name] = {avg.count(), avg.sum(), avg.min(),
                               avg.max()};
    }

    void
    onDistribution(const std::string &name,
                   const StatDistribution &dist) override
    {
        if (name.rfind("sim.host.", 0) == 0)
            return;
        out_.distributions[name] = {dist.count(), dist.sum(), dist.min(),
                                    dist.max(), dist.buckets()};
    }

  private:
    exp::Result &out_;
    Counts &host_;
};

/** Simulated per-layer counts from one op's captured statistics. */
void
addLayerCounts(const exp::Result &r, const Counts &host, Counts &out)
{
    static const std::vector<std::pair<const char *, const char *>> map = {
        {"secmem.ext_fetches", "extmem.fetches"},
        {"secmem.ext_stores", "extmem.stores"},
        {"secmem.mac_failures", "extmem.mac_failures"},
        {"secmem.auth_requests", "auth.requests"},
        {"secmem.counter_misses", "memctrl.counter_misses"},
        {"secmem.remap_entry_fetches", "remap.entry_fetches"},
        {"secmem.tree_node_fetches", "tree.node_fetches"},
        {"cpu.committed", "core.committed"},
        {"cpu.cycles", "core.cycles"},
        {"cpu.squashed", "core.squashed"},
        {"cpu.stall.auth_commit", "core.stall.auth_commit"},
        {"cpu.stall.auth_issue", "core.stall.auth_issue"},
        {"cpu.stall.mem_data", "core.stall.mem_data"},
        {"cpu.stall.bus_wait", "core.stall.bus_wait"},
        {"cpu.stall.fetch_gate", "core.stall.fetch_gate"},
        {"cache.l1d_misses", "l1d.misses"},
        {"cache.l2_misses", "l2.misses"},
        {"cache.l2_writebacks", "l2.writebacks"},
        {"mem.bus_grants", "bus.grants"},
        {"mem.dram_accesses", "dram.accesses"},
        {"mem.txns_retired", "memctrl.fetches"},
        {"mem.txns_retired", "memctrl.writebacks"},
    };
    std::map<std::string, double> flat;
    for (const auto &[name, value] : r.counters)
        flat[unprefixed(name)] += double(value);
    for (const auto &[metric, stat] : map) {
        auto it = flat.find(stat);
        out[metric] += it == flat.end() ? 0.0 : it->second;
    }
    for (const auto &[name, avg] : r.averages)
        if (unprefixed(name) == "bus.grant_wait")
            out["mem.bus_grant_wait"] += avg.sum;
    for (const auto &[name, value] : host)
        if (name.size() > 6 && name.compare(name.size() - 6, 6, ".wakes") == 0)
            out["sim.sched_wakes"] += value;
}

// ---------------------------------------------------------------------
// Traced copies of the ops' call sequences
// ---------------------------------------------------------------------

/** exp::simulatePoint's call sequence, one span per layer call, with
 *  sim.host.* statistics on. Returns the Result the untraced path
 *  would have produced. */
exp::Result
tracedPoint(const exp::Point &point, exp::ResultStore &store,
            const std::string &digest, OpTrace &trace, Counts &counts)
{
    sim::SimConfig cfg = point.cfg;
    cfg.hostStats = true;
    const unsigned n_cores = std::max(1u, cfg.numCores);
    std::vector<isa::Program> progs = trace.span("workloads.build", [&] {
        std::vector<isa::Program> out;
        for (unsigned i = 0; i < n_cores; ++i) {
            const std::string &name =
                i < cfg.coreWorkloads.size() && !cfg.coreWorkloads[i].empty()
                    ? cfg.coreWorkloads[i]
                    : point.workload;
            out.push_back(workloads::build(name, point.params));
        }
        return out;
    });
    auto system = trace.span("sim.construct", [&] {
        return std::make_unique<sim::System>(cfg, std::move(progs));
    });
    counts["secmem.lines_provisioned"] +=
        double(system->hier().ctrl().externalMemory().linesTouched());
    std::uint64_t ff = trace.span("sim.fast_forward", [&] {
        return system->fastForward(point.warmupInsts);
    });
    exp::Result result;
    result.run = trace.span("sim.measure_timed", [&] {
        return system->measureTimed(point.measureInsts, point.maxCycles());
    });
    Counts host;
    trace.span("obs.capture", [&] {
        Capture capture(result, host);
        system->visitStats(capture);
    });
    trace.span("sim.destroy", [&] { system.reset(); });
    trace.span("exp.codec", [&] { return exp::encodeResultTokens(result); });
    trace.span("exp.store_put", [&] { store.put(digest, result); });
    counts["ff_insts"] += double(ff);
    counts["timed_insts"] += double(result.run.insts);
    counts["timed_cycles"] += double(result.run.cycles);
    addLayerCounts(result, host, counts);
    return result;
}

/** The scenario configuration sim::runExploit stages exploits on. */
sim::SimConfig
scenarioConfig(AuthPolicy policy, bool host_stats)
{
    sim::SimConfig cfg;
    cfg.policy = policy;
    cfg.memoryBytes = 64ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    cfg.profileEnabled = true;
    cfg.hostStats = host_stats;
    return cfg;
}

/** Scenario cycle budget, as in sim::runExploit. */
constexpr std::uint64_t kScenarioCycles = 100000;

/** One staged exploit: the victim image, the adversary's ciphertext
 *  edits, and the bus predicates the run is judged on. */
struct Staged
{
    isa::Program prog;
    /** (address, XOR mask bytes) ciphertext edits. */
    std::vector<std::pair<Addr, std::vector<std::uint8_t>>> edits;
    std::function<bool(const mem::BusTxn &)> leak;
    /** Binary search only: the two path markers. */
    Addr markerGreater = 0;
    Addr markerNotGreater = 0;
    bool binarySearch = false;
};

std::vector<std::uint8_t>
maskBytes(std::uint64_t mask, unsigned n)
{
    std::vector<std::uint8_t> out(n);
    for (unsigned i = 0; i < n; ++i)
        out[i] = std::uint8_t(mask >> (8 * i));
    return out;
}

Staged
stageProbe(std::uint64_t secret, std::uint64_t pivot)
{
    workloads::BinarySearchVictim v =
        workloads::buildBinarySearchVictim(secret);
    Staged s;
    s.prog = std::move(v.prog);
    s.edits.push_back({v.constAddr, maskBytes(pivot, 8)});
    s.markerGreater = v.markerGreater;
    s.markerNotGreater = v.markerNotGreater;
    s.binarySearch = true;
    auto g = core::SecurityMonitor::addressEquals(v.markerGreater);
    auto ng = core::SecurityMonitor::addressEquals(v.markerNotGreater);
    s.leak = [g, ng](const mem::BusTxn &txn) { return g(txn) || ng(txn); };
    return s;
}

Staged
stageExploit(Exploit exploit, std::uint64_t seed)
{
    Staged s;
    switch (exploit) {
      case Exploit::kPointerConversion: {
        workloads::PointerConversionVictim v =
            workloads::buildPointerConversionVictim(seed);
        s.prog = std::move(v.prog);
        s.edits.push_back({v.nullPtrAddr, maskBytes(v.secretAddr, 8)});
        s.leak = core::SecurityMonitor::addressEquals(v.secretValue + 8);
        return s;
      }
      case Exploit::kBinarySearch:
        return stageProbe(0xb000 + (seed & 0xfff), 0x8000);
      case Exploit::kDisclosingKernel:
      case Exploit::kIoDisclosure: {
        const bool io = exploit == Exploit::kIoDisclosure;
        workloads::DisclosingKernelVictim v =
            workloads::buildDisclosingKernelVictim(seed);
        std::vector<std::uint32_t> kernel =
            io ? workloads::ioKernelWords(v.secretAddr, 7)
               : workloads::disclosingKernelWords(v.secretAddr, v.pageBase);
        for (std::size_t i = 0; i < kernel.size(); ++i)
            s.edits.push_back({v.epilogueAddr + 4 * i,
                               maskBytes(v.epiloguePlain[i] ^ kernel[i], 4)});
        s.leak = io ? core::SecurityMonitor::ioOutEquals(v.secretValue)
                    : core::SecurityMonitor::addressEquals(
                          v.pageBase | ((v.secretValue & 0xff) << 6));
        s.prog = std::move(v.prog);
        return s;
      }
    }
    acp_panic("bad exploit");
}

/** sim::runExploit's call sequence for one staged run. @p greater
 *  receives the binary-search path the adversary observed. */
sim::ScenarioResult
tracedScenario(AuthPolicy policy, Exploit exploit, Staged staged,
               OpTrace &trace, Counts &counts, bool *greater = nullptr)
{
    auto system = trace.span("sim.construct", [&] {
        return std::make_unique<sim::System>(scenarioConfig(policy, true),
                                             std::move(staged.prog));
    });
    counts["secmem.lines_provisioned"] +=
        double(system->hier().ctrl().externalMemory().linesTouched());
    trace.span("secmem.tamper", [&] {
        system->hier().ctrl().busTrace().enable(true);
        for (const auto &[addr, mask] : staged.edits)
            system->hier().ctrl().externalMemory().tamper(addr, mask.data(),
                                                          mask.size());
    });
    sim::RunResult run = trace.span("sim.measure_timed", [&] {
        return system->measureTimed(~0ULL >> 1, kScenarioCycles);
    });
    sim::ScenarioResult r;
    r.policy = policy;
    r.exploit = exploit;
    exp::Result captured;
    Counts host;
    trace.span("obs.capture", [&] {
        cpu::OooCore &c = system->core();
        r.exceptionRaised = c.securityException();
        r.precise = c.exceptionPrecise();
        r.exceptionCycle = c.exceptionCycle();
        r.taintedCommits = c.taintedCommits();
        r.taintedStoreDrains = c.taintedStoreDrains();
        r.cyclesRun = c.cycles();
        core::SecurityMonitor monitor(system->hier().ctrl().busTrace());
        Cycle horizon = r.exceptionRaised ? r.exceptionCycle : kCycleNever;
        bool saw_g = false, saw_ng = false;
        if (staged.binarySearch) {
            saw_g = monitor
                        .scan(core::SecurityMonitor::addressEquals(
                                  staged.markerGreater),
                              horizon)
                        .leaked;
            saw_ng = monitor
                         .scan(core::SecurityMonitor::addressEquals(
                                   staged.markerNotGreater),
                               horizon)
                         .leaked;
        }
        core::LeakReport report = monitor.scan(staged.leak, horizon);
        r.leaked = report.leaked;
        r.firstLeakCycle = report.firstLeakCycle;
        r.leakCount = report.matchCount;
        r.audit = system->pathProfile().audit;
        if (staged.binarySearch)
            r.leaked = r.leaked && (saw_g != saw_ng);
        if (greater)
            *greater = saw_g && !saw_ng;
        Capture capture(captured, host);
        system->visitStats(capture);
    });
    trace.span("sim.destroy", [&] { system.reset(); });
    counts["timed_insts"] += double(run.insts);
    counts["timed_cycles"] += double(run.cycles);
    addLayerCounts(captured, host, counts);
    return r;
}

/** recoverSecretViaBinarySearch's loop over traced probes. */
sim::BinarySearchRecovery
tracedRecovery(AuthPolicy policy, std::uint64_t secret, OpTrace &trace,
               Counts &counts)
{
    sim::BinarySearchRecovery rec;
    rec.secret = secret;
    std::uint64_t lo = 0;
    std::uint64_t hi = (1ULL << kRecoveryBits) - 1;
    while (lo < hi) {
        std::uint64_t pivot = lo + (hi - lo) / 2;
        Staged staged = trace.span("workloads.build", [&] {
            return stageProbe(secret, pivot);
        });
        bool greater = false;
        sim::ScenarioResult r =
            tracedScenario(policy, Exploit::kBinarySearch, std::move(staged),
                           trace, counts, &greater);
        ++rec.trials;
        if (!r.leaked)
            return rec;
        if (greater)
            lo = pivot + 1;
        else
            hi = pivot;
    }
    rec.recovered = lo;
    rec.success = lo == secret;
    return rec;
}

// ---------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------

struct BatchOutcome
{
    double wall = 0.0;
    double cpu = 0.0;
    /** Committed simulated instructions (fast-forward + timed). */
    double insts = 0.0;
    std::size_t ops = 0;
    std::size_t failed = 0;
    /** Per-op result lines, for traced/untraced parity. */
    std::vector<std::string> lines;
    /** Peak RSS of the process that ran the batch (MiB). */
    double peakRss = 0.0;
    /** Traced batches: layer times (s) and counts. */
    Counts layers;
    std::vector<Span> spans;
};

/**
 * Run @p fn in a forked child, as one bench binary runs one sweep, so
 * every batch starts from the same small heap: its peak RSS is its
 * own, not the high-water mark of the batches before it. Call with no
 * other thread running.
 */
BatchOutcome
isolated(const std::function<BatchOutcome()> &fn)
{
    std::fflush(stdout);
    std::fflush(stderr);
    int fds[2];
    if (pipe(fds) != 0)
        acp_fatal("pipe: %s", std::strerror(errno));
    pid_t pid = fork();
    if (pid < 0)
        acp_fatal("fork: %s", std::strerror(errno));
    if (pid == 0) {
        close(fds[0]);
        BatchOutcome r = fn();
        std::ostringstream msg;
        msg.precision(17);
        msg << r.wall << " " << r.cpu << " " << r.insts << " " << r.ops
            << " " << r.failed << "\n";
        for (const std::string &line : r.lines)
            msg << line << "\n";
        const std::string text = msg.str();
        for (std::size_t off = 0; off < text.size();) {
            ssize_t n = write(fds[1], text.data() + off, text.size() - off);
            if (n <= 0)
                _exit(3);
            off += std::size_t(n);
        }
        _exit(0);
    }
    close(fds[1]);
    std::string text;
    char buf[65536];
    for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;) {
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            acp_fatal("read: %s", std::strerror(errno));
        text.append(buf, std::size_t(n));
    }
    close(fds[0]);
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        acp_fatal("batch process failed (status %d)", status);
    BatchOutcome r;
    std::istringstream in(text);
    in >> r.wall >> r.cpu >> r.insts >> r.ops >> r.failed;
    in.ignore(1);
    for (std::string line; std::getline(in, line);)
        r.lines.push_back(line);
    r.peakRss = double(ru.ru_maxrss) / 1024.0; // KiB on Linux
    return r;
}

struct Bench
{
    std::string workload;
    unsigned set = 0;
    unsigned jobs = 1;
    std::string scratch; // result stores of the sweeps
    Reference ref;
    bool recording = false;
    std::vector<std::string> recorded; // --record output lines
    std::mutex checkMutex;             // guards recorded (worker threads)

    bool sweep() const { return workload != "attacks"; }

    /** Check one op against the reference; false = failed op. */
    bool
    check(const std::string &key, const std::string &signature,
          std::uint64_t insts)
    {
        const std::string k = refKey(set, key);
        std::lock_guard<std::mutex> lock(checkMutex);
        if (recording) {
            recorded.push_back(k + " " + signature +
                               " insts_total=" + std::to_string(insts));
            return true;
        }
        auto it = ref.find(k);
        bool ok = it != ref.end() && it->second.signature == signature &&
                  (insts == 0 || it->second.insts == insts);
        if (!ok)
            std::fprintf(stderr, "MISMATCH %s\n  got      %s\n  expected %s\n",
                         k.c_str(), signature.c_str(),
                         it == ref.end() ? "(none)"
                                         : it->second.signature.c_str());
        return ok;
    }

    std::uint64_t
    refInsts(const std::string &key) const
    {
        auto it = ref.find(refKey(set, key));
        return it == ref.end() ? 0 : it->second.insts;
    }

    std::string
    freshStore()
    {
        static std::atomic<unsigned> counter{0};
        std::string dir =
            scratch + "/store-" + std::to_string(counter.fetch_add(1));
        std::filesystem::remove_all(dir);
        return dir;
    }

    // ----- untraced -------------------------------------------------

    BatchOutcome
    untraced()
    {
        return sweep() ? untracedSweep() : untracedAttacks();
    }

    BatchOutcome
    untracedSweep()
    {
        exp::Request req = sweepRequest(workload, set);
        req.jobs = jobs;
        req.store = freshStore();
        BatchOutcome out;
        double w0 = wallNow(), c0 = cpuNow();
        exp::Submission sub = exp::submit(req);
        out.wall = wallNow() - w0;
        out.cpu = cpuNow() - c0;
        std::filesystem::remove_all(req.store);
        if (!sub.ok)
            acp_fatal("submit failed: %s", sub.error.c_str());
        for (std::size_t i = 0; i < sub.points.size(); ++i) {
            const exp::Point &p = sub.points[i];
            const exp::Result &r = sub.results[i];
            std::uint64_t insts =
                p.warmupInsts * std::max(1u, p.cfg.numCores) + r.run.insts;
            bool ok = r.run.reason == cpu::StopReason::kInstLimit &&
                      check(pointKeyOf(p), sweepSignature(p, r), insts);
            out.failed += ok ? 0 : 1;
            out.insts += double(insts);
            out.lines.push_back(exp::encodeResultTokens(r));
        }
        out.ops = sub.points.size();
        return out;
    }

    BatchOutcome
    untracedAttacks()
    {
        std::vector<AttackOp> ops = attackOps(set);
        std::vector<std::string> sigs(ops.size());
        double w0 = wallNow(), c0 = cpuNow();
        runPool(ops.size(), jobs, [&](std::size_t i) {
            const AttackOp &op = ops[i];
            if (op.recovery)
                sigs[i] = recoverySignature(sim::recoverSecretViaBinarySearch(
                    op.policy, op.seed, kRecoveryBits));
            else
                sigs[i] = scenarioSignature(
                    sim::runExploit(op.exploit, op.policy, op.seed));
        });
        BatchOutcome out;
        out.wall = wallNow() - w0;
        out.cpu = cpuNow() - c0;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            // runExploit does not report instruction counts: they come
            // from the reference, valid because the outcome matched.
            bool ok = check(attackKey(ops[i]), sigs[i], 0);
            out.failed += ok ? 0 : 1;
            out.insts += double(refInsts(attackKey(ops[i])));
        }
        out.lines = std::move(sigs);
        out.ops = ops.size();
        return out;
    }

    // ----- set-up only ----------------------------------------------

    /** Wall time of the batch's set-up alone: the same sweep request
     *  with no warmup and a one-instruction window, or every victim
     *  System of the attacks batch built but not run. */
    double
    setupOnly()
    {
        double w0 = wallNow();
        if (sweep()) {
            exp::Request req = sweepRequest(workload, set);
            req.jobs = jobs;
            req.store = freshStore();
            exp::Request one = req;
            one.decorate = [inner = req.decorate](std::vector<exp::Point> &ps) {
                if (inner)
                    inner(ps);
                for (exp::Point &p : ps) {
                    p.warmupInsts = 0;
                    p.measureInsts = 1;
                }
            };
            exp::Submission sub = exp::submit(one);
            std::filesystem::remove_all(one.store);
            if (!sub.ok)
                acp_fatal("submit failed: %s", sub.error.c_str());
            return wallNow() - w0;
        }
        // A victim System takes tens of microseconds to build, so at 4
        // workers the batch's set-up wall is thread start-up and
        // cross-CPU TLB shootdowns. Build them on one thread instead,
        // repeated for 0.2 s, and report the time per batch.
        std::vector<AttackOp> ops = attackOps(set);
        const std::uint64_t first_pivot = 1ULL << (kRecoveryBits - 1);
        unsigned passes = 0;
        do {
            for (const AttackOp &op : ops) {
                Staged s = op.recovery ? stageProbe(op.seed, first_pivot)
                                       : stageExploit(op.exploit, op.seed);
                sim::System system(scenarioConfig(op.policy, false),
                                   std::move(s.prog));
            }
            ++passes;
        } while (wallNow() - w0 < 0.2);
        return (wallNow() - w0) / passes;
    }

    // ----- traced ---------------------------------------------------

    BatchOutcome
    traced()
    {
        std::vector<std::vector<Span>> spans;
        std::vector<Counts> counts;
        BatchOutcome out;
        mem::TxnArenaStats a0 = mem::txnArenaStats();
        double w0 = wallNow(), c0 = cpuNow();
        if (sweep()) {
            exp::Request req = sweepRequest(workload, set);
            std::vector<exp::Point> points = req.points();
            exp::ResultStore store(freshStore());
            spans.resize(points.size());
            counts.resize(points.size());
            out.lines.resize(points.size());
            std::vector<std::string> digests(points.size());
            std::vector<OpTrace> traces;
            traces.reserve(points.size());
            // The store prepass runs before the pool, as in submit.
            for (std::size_t i = 0; i < points.size(); ++i) {
                traces.emplace_back(i);
                traces[i].begin("prepass");
                exp::Result ignored;
                bool hit = traces[i].span("exp.store_lookup", [&] {
                    digests[i] = exp::pointDigest(points[i]);
                    return store.lookup(digests[i], ignored);
                });
                traces[i].end();
                if (hit)
                    acp_fatal("fresh store hit for %s",
                              pointKeyOf(points[i]).c_str());
            }
            runPool(points.size(), jobs, [&](std::size_t i) {
                traces[i].begin("op");
                exp::Result r = tracedPoint(points[i], store, digests[i],
                                            traces[i], counts[i]);
                traces[i].end();
                spans[i] = traces[i].spans();
                out.lines[i] = exp::encodeResultTokens(r);
                bool ok = r.run.reason == cpu::StopReason::kInstLimit &&
                          check(pointKeyOf(points[i]),
                                sweepSignature(points[i], r),
                                std::uint64_t(counts[i]["ff_insts"] +
                                              counts[i]["timed_insts"]));
                counts[i]["failed"] = ok ? 0 : 1;
            });
            std::filesystem::remove_all(store.dir());
        } else {
            std::vector<AttackOp> ops = attackOps(set);
            spans.resize(ops.size());
            counts.resize(ops.size());
            out.lines.resize(ops.size());
            runPool(ops.size(), jobs, [&](std::size_t i) {
                const AttackOp &op = ops[i];
                OpTrace trace(i);
                trace.begin("op");
                std::string sig;
                if (op.recovery) {
                    sig = recoverySignature(
                        tracedRecovery(op.policy, op.seed, trace, counts[i]));
                } else {
                    Staged staged = trace.span("workloads.build", [&] {
                        return stageExploit(op.exploit, op.seed);
                    });
                    sig = scenarioSignature(tracedScenario(
                        op.policy, op.exploit, std::move(staged), trace,
                        counts[i]));
                }
                trace.end();
                spans[i] = trace.spans();
                out.lines[i] = sig;
                bool ok = check(attackKey(op), sig,
                                std::uint64_t(counts[i]["timed_insts"]));
                counts[i]["failed"] = ok ? 0 : 1;
            });
        }
        out.wall = wallNow() - w0;
        out.cpu = cpuNow() - c0;
        mem::TxnArenaStats a1 = mem::txnArenaStats();

        // Fold the ops: layer busy time is the sum of its spans; root
        // time outside every child span is unattributed.
        Counts &L = out.layers;
        double unattributed = 0.0;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const int base = int(out.spans.size());
            for (Span s : spans[i]) {
                double d = s.end - s.start;
                if (s.parent < 0) {
                    unattributed += d;
                } else {
                    L[std::string(s.name) + "_s"] += d;
                    unattributed -= d;
                    s.parent += base;
                }
                out.spans.push_back(s);
            }
            for (const auto &[name, value] : counts[i])
                L[name] += value;
        }
        L["unattributed_s"] = unattributed;
        L["mem.txn_arena_allocs"] = double(a1.allocs - a0.allocs);
        out.ops = spans.size();
        out.failed = std::size_t(L["failed"]);
        out.insts = L["ff_insts"] + L["timed_insts"];
        return out;
    }
};

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

/** Median time per 64-byte line of the work ExternalMemory does per
 *  provisioned, fetched or stored line: CTR transcode + line MAC. */
double
cryptoLineOpNs()
{
    std::uint8_t key[16];
    for (int i = 0; i < 16; ++i)
        key[i] = std::uint8_t(0x11 * i + 3);
    crypto::CtrModeEngine ctr(key, 16);
    crypto::LineMac mac(key, 16);
    std::uint8_t line[64] = {};
    std::uint64_t sink = 0;
    constexpr int kLines = 4096;
    std::vector<double> reps;
    for (int rep = 0; rep < 7; ++rep) {
        double t0 = wallNow();
        for (int i = 0; i < kLines; ++i) {
            Addr addr = Addr(i) * 64;
            ctr.transcode(addr, std::uint64_t(rep), line, line, 64);
            sink ^= mac.compute(addr, std::uint64_t(rep), line, 64);
            line[i & 63] ^= std::uint8_t(sink);
        }
        reps.push_back((wallNow() - t0) * 1e9 / kLines);
    }
    return median(reps);
}

std::vector<Metric>
layerMetrics(const std::vector<BatchOutcome> &traced,
             const std::vector<BatchOutcome> &untraced, unsigned jobs)
{
    auto med = [&](const std::string &name) {
        std::vector<double> v;
        for (const BatchOutcome &b : traced) {
            auto it = b.layers.find(name);
            v.push_back(it == b.layers.end() ? 0.0 : it->second);
        }
        return median(v);
    };
    std::vector<double> tw, uw, uc, tc;
    for (const BatchOutcome &b : traced) {
        tw.push_back(b.wall);
        tc.push_back(b.cpu);
    }
    for (const BatchOutcome &b : untraced) {
        uw.push_back(b.wall);
        uc.push_back(b.cpu);
    }
    const double construct = med("sim.construct_s");
    const double ff = med("sim.fast_forward_s");
    const double timed = med("sim.measure_timed_s");
    const double wakes = med("sim.sched_wakes");
    const double lines = med("secmem.lines_provisioned");
    const double line_ns = cryptoLineOpNs();
    const double line_ops =
        lines + med("secmem.ext_fetches") + med("secmem.ext_stores");
    std::vector<Metric> m = {
        {"workloads.build_s", "s", med("workloads.build_s")},
        {"sim.construct_s", "s", construct},
        {"sim.fast_forward_s", "s", ff},
        {"sim.measure_timed_s", "s", timed},
        {"sim.ff_kips", "kinst/s", ratio(med("ff_insts"), ff) / 1e3},
        {"sim.timed_kips", "kinst/s", ratio(med("timed_insts"), timed) / 1e3},
        {"sim.timed_ns_per_cycle", "ns/cycle",
         ratio(timed * 1e9, med("timed_cycles"))},
        {"sim.sched_wakes", "count", wakes},
        {"sim.timed_ns_per_wake", "ns/wake", ratio(timed * 1e9, wakes)},
        {"secmem.lines_provisioned", "count", lines},
        {"secmem.provision_us_per_line", "us/line",
         ratio(construct * 1e6, lines)},
    };
    for (const char *name :
         {"secmem.ext_fetches", "secmem.ext_stores", "secmem.mac_failures",
          "secmem.auth_requests", "secmem.counter_misses",
          "secmem.remap_entry_fetches", "secmem.tree_node_fetches"})
        m.push_back({name, "count", med(name)});
    m.push_back({"crypto.line_op_ns", "ns", line_ns});
    m.push_back({"crypto.line_ops", "count", line_ops});
    m.push_back({"crypto.est_cpu_share", "fraction",
                 ratio(line_ops * line_ns * 1e-9, median(tc))});
    m.push_back({"cpu.committed", "count", med("cpu.committed")});
    m.push_back({"cpu.cycles", "cycles", med("cpu.cycles")});
    m.push_back({"cpu.squashed", "count", med("cpu.squashed")});
    for (const char *name :
         {"cpu.stall.auth_commit", "cpu.stall.auth_issue",
          "cpu.stall.mem_data", "cpu.stall.bus_wait",
          "cpu.stall.fetch_gate"})
        m.push_back({name, "cycles", med(name)});
    for (const char *name :
         {"cache.l1d_misses", "cache.l2_misses", "cache.l2_writebacks",
          "mem.bus_grants"})
        m.push_back({name, "count", med(name)});
    m.push_back({"mem.bus_grant_wait", "cycles", med("mem.bus_grant_wait")});
    for (const char *name :
         {"mem.dram_accesses", "mem.txns_retired", "mem.txn_arena_allocs"})
        m.push_back({name, "count", med(name)});
    m.push_back({"obs.capture_s", "s", med("obs.capture_s")});
    m.push_back({"exp.codec_s", "s", med("exp.codec_s")});
    m.push_back({"exp.store_lookup_s", "s", med("exp.store_lookup_s")});
    m.push_back({"exp.store_put_s", "s", med("exp.store_put_s")});
    m.push_back({"exp.pool_idle_s", "s",
                 std::max(0.0, jobs * median(uw) - median(uc))});
    m.push_back({"unattributed_s", "s", med("unattributed_s")});
    m.push_back({"trace_overhead_frac", "fraction",
                 ratio(median(tw), median(uw)) - 1.0});
    return m;
}

void
writeSpans(const std::string &path, const std::string &provenance,
           const std::vector<BatchOutcome> &traced)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        acp_fatal("cannot write %s", path.c_str());
    std::fprintf(f, "{\"provenance\": %s,\n \"batches\": [",
                 provenance.c_str());
    for (std::size_t b = 0; b < traced.size(); ++b) {
        std::fprintf(f, "%s\n  [", b ? "," : "");
        double t0 = traced[b].spans.empty() ? 0.0 : traced[b].spans[0].start;
        for (const Span &s : traced[b].spans)
            t0 = std::min(t0, s.start);
        for (std::size_t i = 0; i < traced[b].spans.size(); ++i) {
            const Span &s = traced[b].spans[i];
            std::fprintf(f,
                         "%s\n   {\"name\": \"%s\", \"op\": %zu, "
                         "\"parent\": %d, \"start_s\": %.9f, "
                         "\"end_s\": %.9f}",
                         i ? "," : "", s.name, s.op, s.parent, s.start - t0,
                         s.end - t0);
        }
        std::fputs("\n  ]", f);
    }
    std::fputs("\n ]\n}\n", f);
    std::fclose(f);
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool record = false;
    std::string reference;
    std::string out = ".";
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                acp_fatal("%s needs a value", a.c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--trace")
            o.trace = value() == "1";
        else if (a == "--reference")
            o.reference = value();
        else if (a == "--out")
            o.out = value();
        else if (a == "--record")
            o.record = true;
        else
            acp_fatal("unknown argument %s", a.c_str());
    }
    if (o.workload != "fig7_int" && o.workload != "fp_long" &&
        o.workload != "attacks")
        acp_fatal("--workload must be fig7_int, fp_long or attacks");
    if (o.reference.empty())
        acp_fatal("--reference DIR is required");
    return o;
}

/** Refuse settings that would measure a different program. */
void
guard()
{
    if (const char *c = std::getenv("ACP_CONNECT"); c && *c)
        acp_fatal("ACP_CONNECT is set: exp::submit would route to a daemon");
    obs::Manifest m = obs::manifest();
    if (m.buildType != "Release" && m.buildType != "RelWithDebInfo")
        acp_fatal("build type '%s' is not optimised", m.buildType.c_str());
    if (!m.sanitize.empty())
        acp_fatal("sanitized build (%s)", m.sanitize.c_str());
}

std::string
provenanceJson(const Options &o, const Bench &b)
{
    char buf[512];
    Window w = o.workload == "fig7_int" ? kFig7Window
             : o.workload == "fp_long"  ? kFpLongWindow
                                        : Window{};
    std::snprintf(
        buf, sizeof(buf),
        "\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"input_set\": %u, "
        "\"data_seed\": %" PRIu64 ", \"jobs\": %u, \"nproc\": %u, "
        "\"seconds\": %g, \"trace\": %d, \"warmup_insts\": %" PRIu64
        ", \"measure_insts\": %" PRIu64 ", \"mix_warmup_insts\": %" PRIu64
        ", \"mix_measure_insts\": %" PRIu64
        ", \"working_set_bytes\": %" PRIu64,
        o.workload.c_str(), o.seed, b.set, kDataSeeds[b.set], b.jobs,
        std::thread::hardware_concurrency(), o.seconds, int(o.trace),
        w.warmup, w.measure, kMixWindow.warmup, kMixWindow.measure,
        kWorkingSetBytes);
    return std::string("{\"manifest\": ") +
           obs::manifestJsonLine(obs::manifest()) + ", " + buf + "}";
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("ops %zu\nops_failed %zu\n", attempted, failed);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

int
record(Bench &b, const Options &o)
{
    b.recording = true;
    for (unsigned set = 0; set < kInputSets; ++set) {
        b.set = set;
        std::size_t from = b.recorded.size();
        BatchOutcome u = b.untraced();
        // Keep the traced lines: only the traced copy of runExploit
        // counts instructions. Its outcomes must equal the untraced.
        b.recorded.resize(from);
        BatchOutcome t = b.traced();
        if (t.lines != u.lines)
            acp_fatal("traced and untraced results differ in set %u", set);
        std::fprintf(stderr, "recorded set %u: %zu ops\n", set, u.ops);
    }
    std::sort(b.recorded.begin(), b.recorded.end());
    std::ofstream f(refPath(o.reference, o.workload));
    f << "# acpbench reference: <input set> <op> <simulated outcome> "
         "insts_total=<committed fast-forward + timed>\n";
    for (const std::string &line : b.recorded)
        f << line << "\n";
    return f ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    guard();

    Bench b;
    b.workload = o.workload;
    b.set = unsigned(o.seed % kInputSets);
    b.jobs = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    b.scratch = o.out + "/stores";
    std::filesystem::create_directories(b.scratch);
    if (o.record)
        return record(b, o);
    b.ref = loadReference(o.reference, o.workload);

    const std::string provenance = provenanceJson(o, b);
    std::printf("{\"provenance\": %s}\n", provenance.c_str());

    std::size_t attempted = 0, failed = 0;
    bool parity = true;
    auto account = [&](const BatchOutcome &r) {
        attempted += r.ops;
        failed += r.failed;
    };

    if (!o.trace) {
        // Set-up first (median of several), then whole batches until
        // the measuring time is used up; each in a fresh process.
        std::vector<double> setup;
        const double setup_start = wallNow();
        while (setup.size() < 5 ||
               (setup.size() < 15 && wallNow() - setup_start < 3.0)) {
            setup.push_back(isolated([&] {
                                BatchOutcome r;
                                r.wall = b.setupOnly();
                                return r;
                            }).wall);
            std::fprintf(stderr, "setup %zu: %.4f s\n", setup.size() - 1,
                         setup.back());
        }
        std::vector<double> wall, cpu, kips, rss;
        double t_end = wallNow() + o.seconds;
        while (wall.size() < 3 || wallNow() < t_end) {
            BatchOutcome r = isolated([&] { return b.untraced(); });
            account(r);
            std::fprintf(stderr, "batch %zu: wall %.3f s, cpu %.3f s, "
                         "peak rss %.1f MiB\n", wall.size(), r.wall, r.cpu,
                         r.peakRss);
            wall.push_back(r.wall);
            cpu.push_back(r.cpu);
            kips.push_back(ratio(r.insts, r.cpu) / 1e3);
            rss.push_back(r.peakRss);
        }
        printResult(failed == 0, attempted, failed,
                    {{"wall_s", "s", median(wall)},
                     {"cpu_s", "s", median(cpu)},
                     {"setup_s", "s", median(setup)},
                     {"sim_kips", "kinst/s", median(kips)},
                     {"peak_rss_mb", "MiB", median(rss)}});
        return 0;
    }

    // Traced pass: untraced and traced batches alternate; every traced
    // op's result must equal the untraced one bit for bit.
    std::vector<BatchOutcome> untraced, traced;
    double t_end = wallNow() + o.seconds;
    while (traced.size() < 2 || wallNow() < t_end) {
        untraced.push_back(isolated([&] { return b.untraced(); }));
        account(untraced.back());
        traced.push_back(b.traced());
        account(traced.back());
        if (traced.back().lines != untraced.back().lines) {
            parity = false;
            std::fprintf(stderr, "traced results differ from untraced\n");
        }
        untraced.back().lines.clear();
        traced.back().lines.clear();
    }
    std::fprintf(stderr, "%zu traced batches\n", traced.size());
    writeSpans(o.out + "/spans-" + o.workload + "-seed" +
                   std::to_string(o.seed) + ".json",
               provenance, traced);
    printResult(failed == 0 && parity, attempted, failed,
                layerMetrics(traced, untraced, b.jobs));
    return 0;
}
