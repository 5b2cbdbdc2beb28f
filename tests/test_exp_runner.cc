/**
 * @file
 * Tests for the acp::exp experiment subsystem on the Request/submit
 * API: the materialized cross product, parallel execution being
 * bit-identical to serial, the config digest covering every
 * secure-memory and multi-core knob, the result store serving
 * repeat submissions without re-simulating, and the strict parsing of
 * ACP_JOBS and the bench REPRO_* knobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "exp/request.hh"
#include "exp/submit.hh"
#include "sim/config_io.hh"

using namespace acp;

namespace
{

/** Small, fast sweep: 2 workloads x 3 policies; no store, quiet. */
exp::Request
smallRequest()
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 16ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;

    workloads::WorkloadParams params;
    params.workingSetBytes = 128 * 1024;

    exp::Request req;
    req.base(cfg).params(params).window(2000, 3000);
    req.workloads({"mcf", "swim"});
    req.variant("base", [](sim::SimConfig &c) {
        c.policy = core::AuthPolicy::kBaseline;
    });
    req.variant("issue", [](sim::SimConfig &c) {
        c.policy = core::AuthPolicy::kAuthThenIssue;
    });
    req.variant("commit", [](sim::SimConfig &c) {
        c.policy = core::AuthPolicy::kAuthThenCommit;
    });
    req.store.clear();
    req.progress = false;
    return req;
}

/** RAII scratch result-store directory. */
class ScratchStore
{
  public:
    explicit ScratchStore(const char *name) : path_(name) { clear(); }
    ~ScratchStore() { clear(); }
    const std::string &path() const { return path_; }

  private:
    void clear() { std::filesystem::remove_all(path_); }
    std::string path_;
};

TEST(ExpRequest, CrossProductIsWorkloadMajor)
{
    std::vector<exp::Point> points = smallRequest().points();
    ASSERT_EQ(points.size(), 6u);
    EXPECT_EQ(points[0].workload, "mcf");
    EXPECT_EQ(points[0].label, "base");
    EXPECT_EQ(points[2].label, "commit");
    EXPECT_EQ(points[3].workload, "swim");
    EXPECT_EQ(points[1].cfg.policy, core::AuthPolicy::kAuthThenIssue);
}

// A '+'-joined workload is a per-core mix: points() widens numCores to
// the mix and names every core's workload, cycling through the mix
// when a variant asks for more cores. Labels stay as declared, and a
// plain workload keeps one core.
TEST(ExpRequest, WorkloadMixWidensCoresAndNamesEveryCore)
{
    exp::Request req;
    req.workloads({"mcf+swim", "gcc"});
    req.variant("commit", [](sim::SimConfig &c) {
        c.policy = core::AuthPolicy::kAuthThenCommit;
    });
    req.variant("commit@4c", [](sim::SimConfig &c) {
        c.policy = core::AuthPolicy::kAuthThenCommit;
        c.numCores = 4;
    });
    std::vector<exp::Point> points = req.points();
    ASSERT_EQ(points.size(), 4u);

    EXPECT_EQ(points[0].workload, "mcf+swim");
    EXPECT_EQ(points[0].label, "commit");
    EXPECT_EQ(points[0].cfg.numCores, 2u);
    EXPECT_EQ(points[0].cfg.coreWorkloads,
              (std::vector<std::string>{"mcf", "swim"}));

    EXPECT_EQ(points[1].label, "commit@4c");
    EXPECT_EQ(points[1].cfg.numCores, 4u);
    EXPECT_EQ(points[1].cfg.coreWorkloads,
              (std::vector<std::string>{"mcf", "swim", "mcf", "swim"}));

    EXPECT_EQ(points[2].workload, "gcc");
    EXPECT_EQ(points[2].label, "commit");
    EXPECT_EQ(points[2].cfg.numCores, 1u);
    EXPECT_TRUE(points[2].cfg.coreWorkloads.empty());
    EXPECT_EQ(points[3].cfg.numCores, 4u);
    EXPECT_TRUE(points[3].cfg.coreWorkloads.empty());
}

/** Every field a run's numbers live in, bit for bit. */
void
expectSameResult(const exp::Result &a, const exp::Result &b,
                 const std::string &what)
{
    EXPECT_EQ(a.run.insts, b.run.insts) << what;
    EXPECT_EQ(a.run.cycles, b.run.cycles) << what;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.run.ipc, b.run.ipc) << what;
    EXPECT_EQ(a.counters, b.counters) << what;
    EXPECT_EQ(a.averages, b.averages) << what;
    EXPECT_EQ(a.distributions, b.distributions) << what;
}

// A submission builds each (core workloads, params) once and shares it
// with every point that runs it: smallRequest()'s policies share one
// build per workload, and an mcf+swim mix under two policies shares
// one two-program build. Four workers read them at once, and every
// result equals both the serial run and simulatePoint, which builds
// its own programs.
TEST(ExpSubmit, ParallelMatchesSerialBitIdentical)
{
    exp::Request mix = smallRequest();
    mix.workloadNames = {"mcf+swim"};
    mix.variants.pop_back(); // base and issue
    const std::vector<exp::Point> mix_points = mix.points();
    ASSERT_EQ(mix_points.size(), 2u);
    ASSERT_EQ(mix_points[0].cfg.numCores, 2u);

    exp::Request serial = smallRequest();
    serial.decorate = [mix_points](std::vector<exp::Point> &points) {
        points.insert(points.end(), mix_points.begin(), mix_points.end());
    };
    serial.jobs = 1;
    exp::Request parallel = serial;
    parallel.jobs = 4;

    exp::Submission serial_sub = exp::submit(serial);
    exp::Submission parallel_sub = exp::submit(parallel);
    ASSERT_TRUE(serial_sub.ok) << serial_sub.error;
    ASSERT_TRUE(parallel_sub.ok) << parallel_sub.error;

    ASSERT_EQ(parallel_sub.points.size(), 8u);
    ASSERT_EQ(serial_sub.results.size(), parallel_sub.results.size());
    EXPECT_EQ(serial_sub.telemetry.simulated, serial_sub.points.size());
    EXPECT_EQ(parallel_sub.telemetry.simulated,
              parallel_sub.points.size());
    for (std::size_t i = 0; i < parallel_sub.results.size(); ++i) {
        const exp::Point &point = parallel_sub.points[i];
        const std::string what = point.workload + "/" + point.label;
        expectSameResult(serial_sub.results[i], parallel_sub.results[i],
                         what + " (serial)");
        expectSameResult(exp::simulatePoint(point), parallel_sub.results[i],
                         what + " (own build)");
    }
}

TEST(ExpDigest, CoversSecureMemoryFields)
{
    exp::Point point;
    point.workload = "mcf";
    std::string base_digest = exp::pointDigest(point);

    {
        exp::Point p = point;
        p.cfg.counterCache.sizeBytes *= 2;
        EXPECT_NE(exp::pointDigest(p), base_digest)
            << "counter-cache size must be part of the key";
    }
    {
        exp::Point p = point;
        p.cfg.encryptionMode = sim::EncryptionMode::kCbc;
        EXPECT_NE(exp::pointDigest(p), base_digest)
            << "encryption mode must be part of the key";
    }
    {
        exp::Point p = point;
        p.cfg.authLatency += 1;
        EXPECT_NE(exp::pointDigest(p), base_digest)
            << "auth latency must be part of the key";
    }
    {
        exp::Point p = point;
        p.cfg.counterPrediction = false;
        EXPECT_NE(exp::pointDigest(p), base_digest);
    }
    {
        exp::Point p = point;
        p.cfg.fetchGateDrain = true;
        EXPECT_NE(exp::pointDigest(p), base_digest);
    }
    {
        exp::Point p = point;
        p.cfg.rngSeed += 1;
        EXPECT_NE(exp::pointDigest(p), base_digest);
    }
    {
        exp::Point p = point;
        p.params.seed += 1;
        EXPECT_NE(exp::pointDigest(p), base_digest);
    }
    {
        exp::Point p = point;
        p.cfg.hashTreeEnabled = true;
        EXPECT_NE(exp::pointDigest(p), base_digest);
    }
    {
        exp::Point p = point;
        p.cfg.policy = core::AuthPolicy::kCommitPlusFetch;
        EXPECT_NE(exp::pointDigest(p), base_digest);
    }
    // Multi-core fields: the core count, and the per-core workload
    // list on its own (it must key even when numCores alone would not
    // change).
    {
        exp::Point p = point;
        p.cfg.numCores = 2;
        EXPECT_NE(exp::pointDigest(p), base_digest);
    }
    {
        exp::Point p = point;
        p.cfg.coreWorkloads = {"mcf", "gap"};
        EXPECT_NE(exp::pointDigest(p), base_digest);
        exp::Point q = p;
        q.cfg.coreWorkloads = {"gap", "mcf"};
        EXPECT_NE(exp::pointDigest(q), exp::pointDigest(p))
            << "per-core workload order must be part of the key";
    }
    // Identical points agree; the display label is not part of the key.
    {
        exp::Point p = point;
        p.label = "pretty-name";
        EXPECT_EQ(exp::pointDigest(p), base_digest);
    }
}

// The digest of a default point, recorded while SimConfig still had a
// per-core policy list. serializeConfig keeps every key it emitted
// then, that list's (now always empty) "corePolicies=" line included:
// a dropped or renamed key re-keys every point and orphans every
// stored result.
TEST(ExpDigest, DefaultConfigDigestIsRecorded)
{
    EXPECT_EQ(
        exp::pointDigest(exp::Point{}),
        "fee3f2a4d562ef7102da8ab549d2ddb8353cea32d3b1e1f870bf0be6d4611675");
}

TEST(ExpDigest, SerializedConfigListsEveryKnobOnce)
{
    sim::SimConfig cfg;
    std::string text = sim::serializeConfig(cfg);
    for (const char *key :
         {"counterCache.sizeBytes", "encryptionMode", "authLatency",
          "counterPrediction", "hashTreeEnabled", "remapCache.sizeBytes",
          "fetchGateDrain", "rngSeed", "policy"}) {
        std::string needle = std::string(key) + "=";
        auto first = text.find(needle);
        ASSERT_NE(first, std::string::npos) << key;
        EXPECT_EQ(text.find(needle, first + 1), std::string::npos)
            << key << " serialized twice";
    }
}

TEST(ExpStore, RoundTripSkipsSimulation)
{
    ScratchStore store("test_exp_store_roundtrip");
    exp::Request req = smallRequest();
    req.workloadNames = {"mcf"};
    req.store = store.path();

    exp::Submission first = exp::submit(req);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(first.telemetry.simulated, first.points.size());
    EXPECT_EQ(first.telemetry.cached, 0u);
    EXPECT_GT(first.results[0].run.insts, 0u);
    EXPECT_FALSE(first.results[0].counters.empty());
    EXPECT_FALSE(first.results[0].fromCache);

    // A fresh submission over the same store directory must serve the
    // stored results without re-simulating.
    exp::Submission second = exp::submit(req);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(second.telemetry.simulated, 0u);
    EXPECT_EQ(second.telemetry.cached, second.points.size());
    for (std::size_t i = 0; i < first.results.size(); ++i) {
        EXPECT_TRUE(second.results[i].fromCache);
        EXPECT_EQ(second.results[i].run.insts,
                  first.results[i].run.insts);
        EXPECT_EQ(second.results[i].run.cycles,
                  first.results[i].run.cycles);
        EXPECT_EQ(second.results[i].run.ipc, first.results[i].run.ipc);
        EXPECT_EQ(second.results[i].run.reason,
                  first.results[i].run.reason);
        EXPECT_EQ(second.results[i].counters,
                  first.results[i].counters);
    }
}

TEST(ExpStore, UncacheableSweepCreatesNoStore)
{
    ScratchStore store("test_exp_store_uncacheable");
    exp::Request req = smallRequest();
    req.workloadNames = {"mcf"};
    req.store = store.path();
    req.decorate = [](std::vector<exp::Point> &points) {
        for (exp::Point &p : points)
            p.cfg.profileEnabled = true;
    };

    exp::Submission sub = exp::submit(req);
    ASSERT_TRUE(sub.ok) << sub.error;
    EXPECT_EQ(sub.telemetry.simulated, sub.points.size());
    EXPECT_FALSE(std::filesystem::exists(store.path()));
}

TEST(ExpSubmit, JobsResolutionNeverZero)
{
    EXPECT_GE(exp::defaultJobs(), 1u);
}

/** Sets (or with nullptr unsets) environment variable @p name for one
 *  scope, then restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        value ? ::setenv(name, value, 1) : ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        had_ ? ::setenv(name_, old_.c_str(), 1) : ::unsetenv(name_);
    }

  private:
    const char *name_;
    std::string old_;
    bool had_;
};

// ACP_JOBS and the bench REPRO_* knobs parse like acpsim's options.
// The death tests only parse: none of them starts a thread.
TEST(EnvKnobsDeathTest, MalformedValuesAreFatalAndNameTheVariable)
{
    const auto fatal = ::testing::ExitedWithCode(1);
    EXPECT_EXIT((::setenv("ACP_JOBS", "-1", 1), exp::defaultJobs()), fatal,
                "ACP_JOBS: '-1' is not a count");
    EXPECT_EXIT((::setenv("ACP_JOBS", "4294967296", 1), exp::defaultJobs()),
                fatal, "ACP_JOBS: '4294967296' is not a count");
    EXPECT_EXIT((::setenv("ACP_JOBS", "2x", 1), exp::defaultJobs()), fatal,
                "ACP_JOBS: '2x'");
    EXPECT_EXIT((::setenv("REPRO_WARMUP_INSTS", "1k", 1),
                 bench::warmupInsts()),
                fatal, "REPRO_WARMUP_INSTS: '1k' is not a count");
    EXPECT_EXIT((::setenv("REPRO_MEASURE_INSTS", "-5", 1),
                 bench::measureInsts()),
                fatal, "REPRO_MEASURE_INSTS: '-5' is not a count");
    EXPECT_EXIT((::setenv("REPRO_WS_BYTES", "2Q", 1),
                 bench::workingSetBytes()),
                fatal, "REPRO_WS_BYTES: bad size suffix in '2Q'");
    EXPECT_EXIT((::setenv("REPRO_WS_BYTES", "-2M", 1),
                 bench::workingSetBytes()),
                fatal, "REPRO_WS_BYTES: bad size '-2M'");
}

TEST(EnvKnobs, WellFormedValuesParse)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    {
        ScopedEnv jobs("ACP_JOBS", nullptr);
        EXPECT_EQ(exp::defaultJobs(), hw);
    }
    {
        ScopedEnv jobs("ACP_JOBS", "0");
        EXPECT_EQ(exp::defaultJobs(), hw);
    }
    {
        ScopedEnv jobs("ACP_JOBS", "3");
        EXPECT_EQ(exp::defaultJobs(), 3u);
    }
    {
        ScopedEnv warmup("REPRO_WARMUP_INSTS", "0x400");
        EXPECT_EQ(bench::warmupInsts(), 1024u);
    }
    {
        ScopedEnv ws("REPRO_WS_BYTES", "2M");
        EXPECT_EQ(bench::workingSetBytes(), 2ULL << 20);
    }
    {
        ScopedEnv ws("REPRO_WS_BYTES", "131072");
        EXPECT_EQ(bench::workingSetBytes(), 131072u);
    }
    {
        ScopedEnv ws("REPRO_WS_BYTES", nullptr);
        EXPECT_EQ(bench::workingSetBytes(), 2ULL << 20);
    }
}

} // namespace
