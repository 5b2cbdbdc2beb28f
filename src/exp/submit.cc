#include "exp/submit.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "common/json.hh"
#include "common/parse.hh"
#include "cpu/ooo_core.hh"
#include "obs/manifest.hh"
#include "obs/path_report.hh"
#include "sim/config_io.hh"
#include "sim/system.hh"

namespace acp::exp
{

namespace
{

/**
 * Typed statistics capture: fills a Result straight from the live
 * StatGroups via System::visitStats, every statistic by its
 * "group.stat" name.
 */
class CaptureVisitor : public StatVisitor
{
  public:
    explicit CaptureVisitor(Result &out) : out_(out) {}

    void
    onCounter(const std::string &name, std::uint64_t value) override
    {
        out_.counters[name] = value;
    }

    void
    onAverage(const std::string &name, const StatAverage &avg) override
    {
        out_.averages[name] = {avg.count(), avg.sum(), avg.min(),
                               avg.max()};
    }

    void
    onDistribution(const std::string &name,
                   const StatDistribution &dist) override
    {
        out_.distributions[name] = {dist.count(), dist.sum(), dist.min(),
                                    dist.max(), dist.buckets()};
    }

  private:
    Result &out_;
};

/** Serialized-config lines -> one JSON object (values stay strings
 *  only when non-numeric, e.g. the policy name). */
void
writeConfigJson(std::FILE *f, const sim::SimConfig &cfg,
                const char *indent)
{
    std::string text = sim::serializeConfig(cfg);
    std::fputs("{", f);
    bool first = true;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            continue; // version line
        std::string key = line.substr(0, eq);
        std::string value = line.substr(eq + 1);
        std::fprintf(f, "%s\n%s  \"", first ? "" : ",", indent);
        std::fputs(json::escape(key).c_str(), f);
        bool numeric = !value.empty() &&
                       value.find_first_not_of("0123456789") ==
                           std::string::npos;
        if (numeric) {
            std::fprintf(f, "\": %s", value.c_str());
        } else {
            std::fputs("\": \"", f);
            std::fputs(json::escape(value).c_str(), f);
            std::fputc('"', f);
        }
        first = false;
    }
    std::fprintf(f, "\n%s}", indent);
}

/** Shared progress line (stderr). */
class ProgressReporter
{
  public:
    ProgressReporter(const Request &req) : req_(req) {}

    void
    report(std::size_t done, std::size_t total, std::size_t cached,
           double eta_seconds, const Point &point, const Result &result)
    {
        if (!req_.progress)
            return;
        const char *label = point.label.empty()
                                ? core::policyName(point.cfg.policy)
                                : point.label.c_str();
        std::lock_guard<std::mutex> lock(mutex_);
        std::fprintf(stderr, "[%3zu/%zu] %-10s %-16s ipc=%.4f  %s",
                     done, total, point.workload.c_str(), label,
                     result.run.ipc, result.fromCache ? "(cached)" : "");
        if (!result.fromCache)
            std::fprintf(stderr, "(%.1fs)", result.wallSeconds);
        // Sweep-level split + ETA: "| 12 cached, ETA 0:48".
        std::fprintf(stderr, "  | %zu cached", cached);
        if (eta_seconds >= 0.0) {
            unsigned eta = unsigned(eta_seconds + 0.5);
            std::fprintf(stderr, ", ETA %u:%02u", eta / 60, eta % 60);
        }
        std::fputc('\n', stderr);
    }

  private:
    const Request &req_;
    std::mutex mutex_;
};

} // namespace

unsigned
defaultJobs()
{
    unsigned n = 0;
    if (const char *env = std::getenv("ACP_JOBS"))
        parseCount("ACP_JOBS", env, n);
    if (n == 0)
        n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

Result
simulatePoint(const Point &point, bool capture_stats_text)
{
    auto start = std::chrono::steady_clock::now();

    // One program per core: cfg.coreWorkloads names them (a core with
    // no entry falls back to the point's workload), so a workload mix
    // like "mcf next to swim" is one point.
    const unsigned n_cores = std::max(1u, point.cfg.numCores);
    std::vector<isa::Program> progs;
    progs.reserve(n_cores);
    for (unsigned i = 0; i < n_cores; ++i) {
        const std::string &name =
            i < point.cfg.coreWorkloads.size() &&
                    !point.cfg.coreWorkloads[i].empty()
                ? point.cfg.coreWorkloads[i]
                : point.workload;
        progs.push_back(workloads::build(name, point.params));
    }
    sim::System system(point.cfg, std::move(progs));
    system.fastForward(point.warmupInsts);
    if (point.prepare)
        point.prepare(system);

    Result result;
    result.run = system.measureTimed(point.measureInsts,
                                     point.maxCycles());
    if (point.finish)
        point.finish(system);
    CaptureVisitor capture(result);
    system.visitStats(capture);
    if (point.cfg.statsInterval != 0) {
        result.intervals = system.core().intervals();
        result.intervalPeriod = point.cfg.statsInterval;
    }
    if (point.cfg.profileEnabled) {
        result.profile = system.pathProfile();
        result.hasProfile = true;
    }
    if (capture_stats_text)
        result.statsText = system.dumpStats();

    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return result;
}

Submission
submit(const Request &req)
{
    auto sweep_start = std::chrono::steady_clock::now();

    Submission sub;
    sub.points = req.points();
    const std::vector<Point> &points = sub.points;

    std::unique_ptr<ResultStore> store;
    if (!req.store.empty())
        store = std::make_unique<ResultStore>(req.store);
    const unsigned jobs = req.jobs ? req.jobs : defaultJobs();

    ProgressReporter reporter(req);
    sub.results.resize(points.size());
    std::vector<std::string> digests(points.size());
    std::vector<std::size_t> todo;
    std::size_t done = 0;

    for (std::size_t i = 0; i < points.size(); ++i) {
        if (store && points[i].cacheable()) {
            digests[i] = pointDigest(points[i]);
            if (store->lookup(digests[i], sub.results[i])) {
                // ETA unknown until a point has been simulated.
                ++done;
                reporter.report(done, points.size(), done, -1.0,
                                points[i], sub.results[i]);
                continue;
            }
        }
        todo.push_back(i);
    }
    // All store hits resolve in the prepass, so the cached/simulated
    // split is fixed from here on.
    const std::size_t cached = done;

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{done};
    std::atomic<std::size_t> sim_done{0};
    auto worker = [&]() {
        for (;;) {
            std::size_t t = next.fetch_add(1);
            if (t >= todo.size())
                return;
            std::size_t i = todo[t];
            Result result = simulatePoint(points[i], req.captureStatsText);
            if (store && points[i].cacheable())
                store->put(digests[i], result);
            sub.results[i] = std::move(result);
            // ETA from mean wall time per simulated point so far,
            // scaled by the points still outstanding and the worker
            // parallelism actually in use.
            std::size_t finished = sim_done.fetch_add(1) + 1;
            double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 sweep_start)
                                 .count();
            std::size_t remaining = todo.size() - finished;
            double eta = finished
                             ? elapsed / double(finished) *
                                   double(remaining)
                             : -1.0;
            reporter.report(completed.fetch_add(1) + 1, points.size(),
                            cached, eta, points[i], sub.results[i]);
        }
    };

    unsigned n = unsigned(std::min<std::size_t>(jobs, todo.size()));
    if (n <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(n);
        for (unsigned t = 0; t < n; ++t)
            pool.emplace_back(worker);
        for (std::thread &thread : pool)
            thread.join();
    }

    // Sweep telemetry: wall-clock percentiles over simulated points.
    sub.telemetry.total = points.size();
    sub.telemetry.cached = cached;
    sub.telemetry.simulated = todo.size();
    sub.telemetry.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sweep_start)
            .count();
    std::vector<double> walls;
    walls.reserve(todo.size());
    for (std::size_t i : todo)
        walls.push_back(sub.results[i].wallSeconds);
    if (!walls.empty()) {
        std::sort(walls.begin(), walls.end());
        sub.telemetry.wallP50 = walls[(walls.size() - 1) / 2];
        sub.telemetry.wallP90 = walls[(walls.size() - 1) * 9 / 10];
        sub.telemetry.wallMax = walls.back();
    }
    if (store) {
        sub.telemetry.hasCacheStats = true;
        sub.telemetry.cacheStats = store->stats();
    }
    return sub;
}

void
writeJson(std::FILE *out, const std::vector<Point> &points,
          const std::vector<Result> &results,
          const SweepTelemetry *telemetry)
{
    // v2 -> v3: a provenance "manifest" block (build + host identity,
    // timestamps) and an optional "telemetry" block (cache split,
    // host wall-time percentiles). Both describe the *run that wrote
    // the file*, never the simulated machine: comparison tooling
    // (tools/bench_diff.py, the CI multi-core smoke) strips them
    // before diffing.
    std::fputs("{\n  \"version\": \"acp-exp-v3\",\n  \"manifest\": ",
               out);
    writeManifestJson(out, obs::manifest(), "  ");
    if (telemetry) {
        std::fprintf(
            out,
            ",\n  \"telemetry\": {\n"
            "    \"total\": %zu,\n"
            "    \"cached\": %zu,\n"
            "    \"simulated\": %zu,\n"
            "    \"wallSeconds\": %.3f,\n"
            "    \"pointWallP50\": %.3f,\n"
            "    \"pointWallP90\": %.3f,\n"
            "    \"pointWallMax\": %.3f",
            telemetry->total, telemetry->cached, telemetry->simulated,
            telemetry->wallSeconds, telemetry->wallP50,
            telemetry->wallP90, telemetry->wallMax);
        if (telemetry->hasCacheStats)
            std::fprintf(
                out,
                ",\n    \"cache\": {\"hits\": %llu, \"misses\": %llu, "
                "\"stores\": %llu}",
                (unsigned long long)telemetry->cacheStats.hits,
                (unsigned long long)telemetry->cacheStats.misses,
                (unsigned long long)telemetry->cacheStats.stores);
        std::fputs("\n  }", out);
    }
    std::fputs(",\n  \"points\": [", out);
    for (std::size_t i = 0; i < points.size() && i < results.size();
         ++i) {
        const Point &p = points[i];
        const Result &r = results[i];
        std::fprintf(out, "%s\n    {\n", i ? "," : "");
        std::fputs("      \"workload\": \"", out);
        std::fputs(json::escape(p.workload).c_str(), out);
        std::fputs("\",\n      \"label\": \"", out);
        std::fputs(json::escape(p.label).c_str(), out);
        std::fprintf(out,
                     "\",\n      \"digest\": \"%s\",\n"
                     "      \"workloadSeed\": %llu,\n"
                     "      \"workingSetBytes\": %llu,\n"
                     "      \"warmupInsts\": %llu,\n"
                     "      \"measureInsts\": %llu,\n"
                     "      \"config\": ",
                     pointDigest(p).c_str(),
                     (unsigned long long)p.params.seed,
                     (unsigned long long)p.params.workingSetBytes,
                     (unsigned long long)p.warmupInsts,
                     (unsigned long long)p.measureInsts);
        writeConfigJson(out, p.cfg, "      ");
        std::fprintf(out,
                     ",\n      \"result\": {\n"
                     "        \"ipc\": %.17g,\n"
                     "        \"insts\": %llu,\n"
                     "        \"cycles\": %llu,\n"
                     "        \"reason\": \"%s\",\n"
                     "        \"fromCache\": %s,\n"
                     "        \"counters\": {",
                     r.run.ipc, (unsigned long long)r.run.insts,
                     (unsigned long long)r.run.cycles,
                     cpu::stopReasonName(r.run.reason),
                     r.fromCache ? "true" : "false");
        bool first = true;
        for (const auto &[name, value] : r.counters) {
            std::fprintf(out, "%s\n          \"", first ? "" : ",");
            std::fputs(json::escape(name).c_str(), out);
            std::fprintf(out, "\": %llu", (unsigned long long)value);
            first = false;
        }
        std::fprintf(out, "%s        },\n        \"averages\": {",
                     first ? "" : "\n");
        first = true;
        for (const auto &[name, avg] : r.averages) {
            std::fprintf(out, "%s\n          \"", first ? "" : ",");
            std::fputs(json::escape(name).c_str(), out);
            std::fprintf(out,
                         "\": {\"count\": %llu, \"mean\": %.17g, "
                         "\"min\": %.17g, \"max\": %.17g}",
                         (unsigned long long)avg.count, avg.mean(),
                         avg.min, avg.max);
            first = false;
        }
        std::fprintf(out, "%s        },\n        \"distributions\": {",
                     first ? "" : "\n");
        first = true;
        for (const auto &[name, dist] : r.distributions) {
            std::fprintf(out, "%s\n          \"", first ? "" : ",");
            std::fputs(json::escape(name).c_str(), out);
            std::fprintf(out,
                         "\": {\"count\": %llu, \"sum\": %llu, "
                         "\"min\": %llu, \"max\": %llu, \"buckets\": [",
                         (unsigned long long)dist.count,
                         (unsigned long long)dist.sum,
                         (unsigned long long)dist.min,
                         (unsigned long long)dist.max);
            for (std::size_t b = 0; b < dist.buckets.size(); ++b)
                std::fprintf(out, "%s%llu", b ? ", " : "",
                             (unsigned long long)dist.buckets[b]);
            std::fputs("]}", out);
            first = false;
        }
        std::fprintf(out, "%s        }", first ? "" : "\n");
        if (!r.intervals.empty()) {
            std::fprintf(out,
                         ",\n        \"intervalPeriod\": %llu,\n"
                         "        \"intervals\": [",
                         (unsigned long long)r.intervalPeriod);
            for (std::size_t s = 0; s < r.intervals.size(); ++s) {
                const obs::IntervalSample &iv = r.intervals[s];
                std::fprintf(out,
                             "%s\n          {\"endCycle\": %llu, "
                             "\"cycles\": %llu, \"insts\": %llu, "
                             "\"ipc\": %.17g, \"stalls\": {",
                             s ? "," : "",
                             (unsigned long long)iv.endCycle,
                             (unsigned long long)iv.cycles,
                             (unsigned long long)iv.insts, iv.ipc);
                bool first_stall = true;
                for (unsigned c = 0; c < obs::kNumStallCauses; ++c) {
                    if (iv.stalls[c] == 0)
                        continue;
                    std::fprintf(out, "%s\"%s\": %llu",
                                 first_stall ? "" : ", ",
                                 obs::stallCauseName(obs::StallCause(c)),
                                 (unsigned long long)iv.stalls[c]);
                    first_stall = false;
                }
                std::fputs("}}", out);
            }
            std::fputs("\n        ]", out);
        }
        if (r.hasProfile) {
            std::fputs(",\n        \"profile\": ", out);
            obs::writePathProfileJson(out, r.profile, "        ");
        }
        std::fputs("\n      }\n    }", out);
    }
    std::fprintf(out, "\n  ]\n}\n");
}

bool
writeJson(const std::string &path, const std::vector<Point> &points,
          const std::vector<Result> &results,
          const SweepTelemetry *telemetry)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    writeJson(f, points, results, telemetry);
    std::fclose(f);
    return true;
}

} // namespace acp::exp
