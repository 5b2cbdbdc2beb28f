/**
 * @file
 * Live heartbeat stream: periodic JSONL records emitted while a run
 * or sweep is *in flight*, so an external process (a dashboard, a
 * parent process reading a pipe, `tail -f`) can watch progress without
 * waiting for the final JSON. tools/check_heartbeat.py validates it.
 *
 * Stream shape (schema "acp-heartbeat-v1", one JSON object per line):
 *
 *   {"t":"sweep_start", "schema":..., "total":N, "jobs":J,
 *    "manifest":{...}, "wall":...}
 *   {"t":"run_start", "workload":..., "label":..., "wall":...}
 *   {"t":"tick", "workload":..., "label":..., "cycle":C, "insts":I,
 *    "intervalCycles":dC, "intervalInsts":dI, "intervalIpc":...,
 *    "txns":T, "stalls":{cause:dCycles,...}, "wall":...}
 *   {"t":"run_end", "workload":..., "label":..., "cycle":C,
 *    "insts":I, "ipc":..., "reason":..., "wall":...}
 *   {"t":"point", "done":D, "total":N, "cached":c, "simulated":s,
 *    "workload":..., "label":..., "ipc":..., "fromCache":...,
 *    "etaSeconds":E, "wall":...}
 *   {"t":"sweep_end", "total":N, "cached":c, "simulated":s,
 *    "wallSeconds":..., ["cacheHits":..., ...,] "wall":...}
 *
 * The Heartbeat object is the shared, thread-safe sink (the
 * exp::submit runs points on a thread pool; records from concurrent
 * runs interleave but each line is written atomically under a lock).
 * A HeartbeatRun is the per-simulation feed the core drives: it
 * differences the cumulative (cycle, insts, stalls) totals into
 * per-interval deltas every `period` *simulated* cycles.
 *
 * The heartbeat is strictly passive — it reads cumulative statistics
 * the core maintains anyway and never feeds anything back, so a
 * heartbeat-enabled run is bit-identical to a silent one (asserted in
 * tests/test_telemetry.cc).
 */

#ifndef ACP_OBS_HEARTBEAT_HH
#define ACP_OBS_HEARTBEAT_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "common/types.hh"
#include "obs/stall.hh"

namespace acp::obs
{

struct Manifest;

/** The shared JSONL sink. */
class Heartbeat
{
  public:
    /**
     * Open a sink from a command-line spec: "-" (or empty) appends to
     * stderr, "fd:N" adopts an inherited file descriptor (a parent
     * process passes a pipe), anything else is a file
     * path (truncated). Returns nullptr (with a message on stderr)
     * when the target can't be opened.
     */
    static std::unique_ptr<Heartbeat> open(const std::string &spec);

    /** Wrap an open stream; closes it on destruction iff @p own. */
    Heartbeat(std::FILE *out, bool own);

    ~Heartbeat();

    Heartbeat(const Heartbeat &) = delete;
    Heartbeat &operator=(const Heartbeat &) = delete;

    // ----- sweep-level records (emitted by exp::submit) ---------------
    void sweepStart(std::size_t total, unsigned jobs,
                    const Manifest &manifest);
    void point(std::size_t done, std::size_t total, std::size_t cached,
               std::size_t simulated, const std::string &workload,
               const std::string &label, double ipc, bool from_cache,
               double eta_seconds);
    /** @p cache_stats is an optional pre-rendered `"k":v, ...` tail
     *  (result-cache hit/miss/evict counters); empty omits it. */
    void sweepEnd(std::size_t total, std::size_t cached,
                  std::size_t simulated, double wall_seconds,
                  const std::string &cache_stats = "");

    // ----- run-level records (emitted through HeartbeatRun) -----------
    void runStart(const std::string &workload, const std::string &label);
    void runTick(const std::string &workload, const std::string &label,
                 Cycle cycle, std::uint64_t insts,
                 Cycle interval_cycles, std::uint64_t interval_insts,
                 std::uint64_t txns, const StallArray &stall_delta);
    void runEnd(const std::string &workload, const std::string &label,
                Cycle cycle, std::uint64_t insts, double ipc,
                const char *reason);

  private:
    /** Write one line + flush under the lock (tail -f friendliness). */
    void emit(const std::string &line);
    /** Seconds since the epoch with millisecond resolution. */
    static double wallNow();

    std::FILE *out_;
    bool own_;
    std::mutex mutex_;
};

/**
 * Per-simulation feed: created by the submit engine for each simulated
 * point, attached to the core like the IntervalRecorder. The core
 * calls sample() from its per-cycle accounting (and from the batched
 * idle-window replay); the feed decides when a full period has
 * elapsed and differences the cumulative totals into a tick record.
 */
class HeartbeatRun
{
  public:
    HeartbeatRun(Heartbeat &hb, std::string workload, std::string label,
                 Cycle period)
        : hb_(hb), workload_(std::move(workload)),
          label_(std::move(label)), period_(period ? period : 1)
    {
        hb_.runStart(workload_, label_);
    }

    /** First cycle at which sample() will emit (cheap hot-path check). */
    Cycle nextSampleCycle() const { return next_; }

    /**
     * Feed cumulative totals at @p cycle; emits a tick when the
     * period boundary has been reached. @p txns is the cumulative
     * count of retired off-chip transactions.
     */
    void
    sample(Cycle cycle, std::uint64_t insts, const StallArray &stalls,
           std::uint64_t txns)
    {
        if (cycle < next_)
            return;
        StallArray delta{};
        for (unsigned i = 0; i < kNumStallCauses; ++i)
            delta[i] = stalls[i] - lastStalls_[i];
        hb_.runTick(workload_, label_, cycle, insts, cycle - lastCycle_,
                    insts - lastInsts_, txns, delta);
        lastCycle_ = cycle;
        lastInsts_ = insts;
        lastStalls_ = stalls;
        next_ = cycle + period_;
    }

    /** Anchor the deltas to the start of the timed window. */
    void
    begin(Cycle cycle)
    {
        lastCycle_ = cycle;
        next_ = cycle + period_;
    }

    /** Emit the closing record (end of the timed window). */
    void
    end(Cycle cycle, std::uint64_t insts, double ipc, const char *reason)
    {
        hb_.runEnd(workload_, label_, cycle, insts, ipc, reason);
    }

  private:
    Heartbeat &hb_;
    std::string workload_;
    std::string label_;
    Cycle period_;
    Cycle next_ = 0;
    Cycle lastCycle_ = 0;
    std::uint64_t lastInsts_ = 0;
    StallArray lastStalls_{};
};

} // namespace acp::obs

#endif // ACP_OBS_HEARTBEAT_HH
