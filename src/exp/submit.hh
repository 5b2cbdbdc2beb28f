/**
 * @file
 * exp::submit — the one execution entry point for a Request. Every
 * surface (bench binaries, examples, the acpsim CLI) calls the same
 * function:
 *
 *   exp::Request req;
 *   req.base(cfg).workloads(names).variant(...);
 *   exp::Submission sub = exp::submit(req);
 *   exp::writeJson("out.json", sub.points, sub.results,
 *                  &sub.telemetry);
 *
 * The points run in-process on a std::thread pool (one independent,
 * deterministic sim::System per point) against the result store
 * (exp/result_store.hh), which several processes may share.
 *
 * Job count resolution: explicit Request::jobs, else the
 * ACP_JOBS environment variable, else hardware concurrency. Because
 * every System is self-contained (per-instance xoshiro RNG, no global
 * mutable state), a jobs=N run is bit-identical to jobs=1.
 */

#ifndef ACP_EXP_SUBMIT_HH
#define ACP_EXP_SUBMIT_HH

#include <string>
#include <vector>

#include "exp/request.hh"
#include "exp/result.hh"
#include "exp/result_store.hh"

namespace acp::exp
{

/**
 * Host-side telemetry of one submission: cache split, whole-sweep
 * wall time and per-simulated-point wall-time percentiles. Reported
 * in the sweep JSON "telemetry" block; never cached and never part
 * of any digest.
 */
struct SweepTelemetry
{
    std::size_t total = 0;
    std::size_t cached = 0;
    std::size_t simulated = 0;
    /** Whole-sweep wall time (includes store lookups + threading). */
    double wallSeconds = 0.0;
    /** Percentiles over the simulated points' wallSeconds. */
    double wallP50 = 0.0;
    double wallP90 = 0.0;
    double wallMax = 0.0;
    /** Result-store counters (valid when hasCacheStats). */
    bool hasCacheStats = false;
    ResultStore::Stats cacheStats;
};

/** Everything one submit() produced; results align with points. */
struct Submission
{
    std::vector<Point> points;
    std::vector<Result> results;
    SweepTelemetry telemetry;
    /** submit() never clears @c ok or sets @c error: a point that
     *  fails ends the process (acp_fatal/acp_panic) before submit()
     *  returns. Both stay only because perfbench reads them. */
    bool ok = true;
    std::string error;
};

/** ACP_JOBS env (0 or unset: hardware concurrency), never 0; a
 *  malformed ACP_JOBS is fatal. */
unsigned defaultJobs();

/** Execute @p req (see file comment). */
Submission submit(const Request &req);

/** Simulate one point in-process, no store involved — the primitive
 *  under submit(). */
Result simulatePoint(const Point &point);

/**
 * Write points+results to @p path as one JSON document (machine
 * consumption): a provenance manifest, an optional sweep "telemetry"
 * block, then one record per point with identity, digest, the full
 * config, and the result including captured counters, averages,
 * distributions and — when statsInterval was set — the interval time
 * series. False when the file could not be written
 * (json::writeFile).
 */
bool writeJson(const std::string &path, const std::vector<Point> &points,
               const std::vector<Result> &results,
               const SweepTelemetry *telemetry = nullptr);

/**
 * @p result's captured statistics as text, one line per statistic in
 * the format of System::dumpStats(): counters, then averages, then
 * distributions, each sorted by name. A result served from the store
 * prints the same text as a fresh one.
 */
std::string statsText(const Result &result);

} // namespace acp::exp

#endif // ACP_EXP_SUBMIT_HH
