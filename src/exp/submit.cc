#include "exp/submit.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "common/json.hh"
#include "common/parse.hh"
#include "common/stats.hh"
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
writeConfig(json::Writer &w, const sim::SimConfig &cfg)
{
    std::istringstream lines(sim::serializeConfig(cfg));
    std::string line;
    w.beginObject();
    while (std::getline(lines, line)) {
        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            continue; // version line
        std::string value = line.substr(eq + 1);
        w.key(line.substr(0, eq));
        bool numeric = !value.empty() &&
                       value.find_first_not_of("0123456789") ==
                           std::string::npos;
        // serializeConfig prints every number as a decimal uint64.
        if (numeric)
            w.value(std::uint64_t(std::stoull(value)));
        else
            w.value(value);
    }
    w.endObject();
}

/** One point of the sweep JSON: identity, config and result. */
void
writePoint(json::Writer &w, const Point &p, const Result &r)
{
    w.beginObject();
    w.key("workload").value(p.workload);
    w.key("label").value(p.label);
    w.key("digest").value(pointDigest(p));
    w.key("workloadSeed").value(p.params.seed);
    w.key("workingSetBytes").value(p.params.workingSetBytes);
    w.key("warmupInsts").value(p.warmupInsts);
    w.key("measureInsts").value(p.measureInsts);
    w.key("config");
    writeConfig(w, p.cfg);

    w.key("result").beginObject();
    w.key("ipc").value(r.run.ipc);
    w.key("insts").value(r.run.insts);
    w.key("cycles").value(r.run.cycles);
    w.key("reason").value(cpu::stopReasonName(r.run.reason));
    w.key("fromCache").value(r.fromCache);
    w.key("counters").beginObject();
    for (const auto &[name, value] : r.counters)
        w.key(name).value(value);
    w.endObject();
    w.key("averages").beginObject();
    for (const auto &[name, avg] : r.averages) {
        w.key(name).beginObject(json::kOneLine);
        w.key("count").value(avg.count).key("mean").value(avg.mean());
        w.key("min").value(avg.min).key("max").value(avg.max).endObject();
    }
    w.endObject();
    w.key("distributions").beginObject();
    for (const auto &[name, dist] : r.distributions) {
        w.key(name).beginObject(json::kOneLine);
        w.key("count").value(dist.count).key("sum").value(dist.sum);
        w.key("min").value(dist.min).key("max").value(dist.max);
        w.key("buckets").beginArray();
        for (std::uint64_t n : dist.buckets)
            w.value(n);
        w.endArray().endObject();
    }
    w.endObject();
    if (!r.intervals.empty()) {
        w.key("intervalPeriod").value(r.intervalPeriod);
        w.key("intervals").beginArray();
        for (const obs::IntervalSample &iv : r.intervals) {
            w.beginObject(json::kOneLine);
            w.key("endCycle").value(iv.endCycle);
            w.key("cycles").value(iv.cycles).key("insts").value(iv.insts);
            w.key("ipc").value(iv.ipc);
            w.key("stalls").beginObject();
            for (unsigned c = 0; c < obs::kNumStallCauses; ++c)
                if (iv.stalls[c] != 0)
                    w.key(obs::stallCauseName(obs::StallCause(c)))
                        .value(iv.stalls[c]);
            w.endObject().endObject();
        }
        w.endArray();
    }
    if (r.hasProfile) {
        w.key("profile");
        obs::writePathProfile(w, r.profile);
    }
    w.endObject();
    w.endObject();
}

/**
 * One program per core: cfg.coreWorkloads names them (a core with no
 * entry runs the point's workload), so a workload mix like "mcf next
 * to swim" is one point.
 */
std::vector<std::string>
coreWorkloads(const Point &point)
{
    const std::vector<std::string> &named = point.cfg.coreWorkloads;
    std::vector<std::string> names(point.cfg.numCores, point.workload);
    for (std::size_t i = 0; i < names.size() && i < named.size(); ++i)
        if (!named[i].empty())
            names[i] = named[i];
    return names;
}

/** A point's programs, one per core, which every point on the same
 *  (core workloads, params) shares. */
using Programs = std::shared_ptr<const std::vector<isa::Program>>;

/** workloads::build of each of @p names, in order. */
Programs
buildPrograms(const std::vector<std::string> &names,
              const workloads::WorkloadParams &params)
{
    std::vector<isa::Program> progs;
    progs.reserve(names.size());
    for (const std::string &name : names)
        progs.push_back(workloads::build(name, params));
    return std::make_shared<const std::vector<isa::Program>>(
        std::move(progs));
}

/** Simulate @p point on @p progs, the build of its coreWorkloads().
 *  The System reads them only while it is constructed, so they are
 *  let go there; the wall time starts there too, and covers no
 *  build. */
Result
runPoint(const Point &point, Programs progs)
{
    auto start = std::chrono::steady_clock::now();

    sim::System system(point.cfg, *progs);
    progs.reset();
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

    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return result;
}

/** What builds a point's programs. Compared as a value, every field of
 *  the params included, so only points whose programs are equal share
 *  a build. */
struct BuildKey
{
    std::vector<std::string> names;
    workloads::WorkloadParams params;

    auto operator<=>(const BuildKey &) const = default;
};

/** One BuildKey's programs: built by the first point that needs them
 *  and handed to every point that does. The last point to take them
 *  holds the only reference, so they are freed once its System is
 *  constructed. */
struct SharedBuild
{
    std::once_flag built;
    Programs progs;
    /** Points still to take @ref progs. */
    std::atomic<std::size_t> users{0};
};

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
simulatePoint(const Point &point)
{
    return runPoint(point,
                    buildPrograms(coreWorkloads(point), point.params));
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

    // The points to simulate that need the same programs share one
    // build of them (a store hit needs none).
    std::map<BuildKey, SharedBuild> builds;
    std::vector<SharedBuild *> build_of(todo.size());
    for (std::size_t t = 0; t < todo.size(); ++t) {
        const Point &point = points[todo[t]];
        SharedBuild &build = builds[{coreWorkloads(point), point.params}];
        ++build.users;
        build_of[t] = &build;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{done};
    std::atomic<std::size_t> sim_done{0};
    auto worker = [&]() {
        for (;;) {
            std::size_t t = next.fetch_add(1);
            if (t >= todo.size())
                return;
            std::size_t i = todo[t];
            // A worker that finds the build under way waits for it.
            SharedBuild &build = *build_of[t];
            std::call_once(build.built, [&] {
                build.progs = buildPrograms(coreWorkloads(points[i]),
                                            points[i].params);
            });
            Programs progs = build.progs;
            if (--build.users == 0)
                build.progs.reset();
            Result result = runPoint(points[i], std::move(progs));
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

bool
writeJson(const std::string &path, const std::vector<Point> &points,
          const std::vector<Result> &results,
          const SweepTelemetry *telemetry)
{
    return json::writeFile(path, [&](json::Writer &w) {
        w.beginObject();
        w.key("version").value("acp-exp-v3");
        // The "manifest" (build + host identity, timestamps) and the
        // optional "telemetry" (cache split, host wall-time
        // percentiles) describe the *run that wrote the file*, never
        // the simulated machine: comparison tooling
        // (tools/bench_diff.py, ctest's acpsim_multicore_determinism)
        // strips them before diffing.
        w.key("manifest");
        obs::writeManifest(w, obs::manifest());
        if (telemetry) {
            w.key("telemetry").beginObject();
            w.key("total").value(telemetry->total);
            w.key("cached").value(telemetry->cached);
            w.key("simulated").value(telemetry->simulated);
            w.key("wallSeconds").fixed(telemetry->wallSeconds, 3);
            w.key("pointWallP50").fixed(telemetry->wallP50, 3);
            w.key("pointWallP90").fixed(telemetry->wallP90, 3);
            w.key("pointWallMax").fixed(telemetry->wallMax, 3);
            if (telemetry->hasCacheStats) {
                const ResultStore::Stats &cache = telemetry->cacheStats;
                w.key("cache").beginObject(json::kOneLine);
                w.key("hits").value(cache.hits);
                w.key("misses").value(cache.misses);
                w.key("stores").value(cache.stores).endObject();
            }
            w.endObject();
        }
        w.key("points").beginArray();
        for (std::size_t i = 0; i < points.size() && i < results.size();
             ++i)
            writePoint(w, points[i], results[i]);
        w.endArray();
        w.endObject();
    });
}

std::string
statsText(const Result &result)
{
    std::string out;
    for (const auto &[name, value] : result.counters)
        dumpCounter(out, name, value);
    for (const auto &[name, avg] : result.averages)
        dumpAverage(out, name, avg.count, avg.mean(), avg.min, avg.max);
    for (const auto &[name, dist] : result.distributions)
        dumpDistribution(out, name, dist.count, dist.mean(), dist.min,
                         dist.max, dist.buckets);
    return out;
}

} // namespace acp::exp
