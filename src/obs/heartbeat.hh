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
 * Each simulated core feeds it through an obs::IntervalSampler whose
 * sink calls runTick(), so tick k lands on cycle k * period of the
 * core-local clock with that period's deltas.
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
#include "obs/interval.hh"

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

    // ----- run-level records (emitted by exp::simulatePoint) ---------
    void runStart(const std::string &workload, const std::string &label);
    /** @p insts is the cumulative commit count at the sample's end;
     *  @p txns the cumulative count of retired off-chip transactions. */
    void runTick(const std::string &workload, const std::string &label,
                 const IntervalSample &sample, std::uint64_t insts,
                 std::uint64_t txns);
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

} // namespace acp::obs

#endif // ACP_OBS_HEARTBEAT_HH
