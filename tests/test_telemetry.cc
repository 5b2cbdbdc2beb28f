/**
 * @file
 * Tests for the acp::obs telemetry layer: provenance manifests are
 * deterministic (identical minus timestamps), the sim.host.*
 * self-metrics satisfy their partition invariants, the result store
 * counts hits, misses and stores, and the sweep JSON gains the v3
 * manifest + telemetry blocks without perturbing any result.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "exp/request.hh"
#include "exp/submit.hh"
#include "mem/txn.hh"
#include "obs/manifest.hh"
#include "sim/system.hh"
#include "workloads/workloads.hh"

using namespace acp;

namespace
{

sim::SimConfig
smallConfig()
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 16ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    return cfg;
}

exp::Point
smallPoint(const char *workload = "mcf")
{
    exp::Point point;
    point.workload = workload;
    point.cfg = smallConfig();
    point.params.workingSetBytes = 128 * 1024;
    point.warmupInsts = 2000;
    point.measureInsts = 3000;
    return point;
}

/** Request for one workload with the smallPoint window; no store. */
exp::Request
smallRequest(const char *workload = "mcf")
{
    exp::Request req;
    workloads::WorkloadParams params;
    params.workingSetBytes = 128 * 1024;
    req.base(smallConfig()).params(params).window(2000, 3000);
    req.workload(workload);
    req.jobs = 1;
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

/** RAII scratch file. */
class ScratchFile
{
  public:
    explicit ScratchFile(const char *name) : path_(name)
    {
        std::remove(path_.c_str());
    }
    ~ScratchFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

    std::string
    contents() const
    {
        std::FILE *f = std::fopen(path_.c_str(), "rb");
        if (!f)
            return {};
        std::string text;
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
        return text;
    }

  private:
    std::string path_;
};

// ----- manifest ----------------------------------------------------------

TEST(Manifest, DeterministicMinusTimestamps)
{
    obs::Manifest a = obs::manifest();
    obs::Manifest b = obs::manifest();
    EXPECT_EQ(a.schema, "acp-manifest-v1");
    EXPECT_EQ(a.gitSha, b.gitSha);
    EXPECT_EQ(a.gitDirty, b.gitDirty);
    EXPECT_EQ(a.buildType, b.buildType);
    EXPECT_EQ(a.compiler, b.compiler);
    EXPECT_EQ(a.cxxFlags, b.cxxFlags);
    EXPECT_EQ(a.sanitize, b.sanitize);
    EXPECT_EQ(a.hostname, b.hostname);
    // Timestamps are populated (never compared for identity).
    EXPECT_FALSE(a.timestampUtc.empty());
    EXPECT_GT(a.unixTime, 0u);
}

TEST(Manifest, JsonLineAndTextCarryTheSha)
{
    obs::Manifest m = obs::manifest();
    std::string line = obs::manifestJsonLine(m);
    EXPECT_NE(line.find("\"schema\": \"acp-manifest-v1\""),
              std::string::npos);
    EXPECT_NE(line.find(m.gitSha), std::string::npos);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find('\n'), std::string::npos);

    std::string text = obs::manifestText(m);
    EXPECT_NE(text.find(m.gitSha), std::string::npos);
    EXPECT_NE(text.find(m.buildType), std::string::npos);
}

// ----- sim.host.* self-metrics -------------------------------------------

TEST(HostStats, PartitionSanity)
{
    sim::SimConfig cfg = smallConfig();
    cfg.hostStats = true;
    workloads::WorkloadParams params;
    params.workingSetBytes = 128 * 1024;
    sim::System system(cfg, workloads::build("mcf", params));
    system.fastForward(2000);
    system.measureTimed(3000, 3000 * 400);

    struct Capture : StatVisitor
    {
        std::map<std::string, std::uint64_t> counters;
        std::map<std::string, std::uint64_t> distCounts;
        void
        onCounter(const std::string &name, std::uint64_t v) override
        {
            counters[name] = v;
        }
        void
        onDistribution(const std::string &name,
                       const StatDistribution &d) override
        {
            distCounts[name] = d.count();
        }
    } cap;
    system.visitStats(cap);

    // The core woke at least once; the jump histogram records exactly
    // the gaps between consecutive wakes.
    ASSERT_TRUE(cap.counters.count("sim.host.sched.core.wakes"));
    std::uint64_t wakes = cap.counters["sim.host.sched.core.wakes"];
    EXPECT_GE(wakes, 1u);
    ASSERT_TRUE(cap.distCounts.count("sim.host.sched.core.jump"));
    EXPECT_EQ(cap.distCounts["sim.host.sched.core.jump"], wakes - 1);

    // Arena pressure: live <= high water <= allocs.
    std::uint64_t allocs = cap.counters["sim.host.arena.allocs"];
    std::uint64_t live = cap.counters["sim.host.arena.live"];
    std::uint64_t hw = cap.counters["sim.host.arena.live_high_water"];
    EXPECT_LE(live, hw);
    EXPECT_LE(hw, allocs);
    EXPECT_GT(allocs, 0u);
}

TEST(HostStats, OffByDefaultAndDigestExcluded)
{
    // Off: no sim.host.* groups in the dump.
    sim::SimConfig cfg = smallConfig();
    workloads::WorkloadParams params;
    params.workingSetBytes = 128 * 1024;
    {
        sim::System system(cfg, workloads::build("mcf", params));
        system.fastForward(500);
        system.measureTimed(500, 500 * 400);
        EXPECT_EQ(system.dumpStats().find("sim.host."),
                  std::string::npos);
    }

    // Digest-excluded (like profileEnabled), but uncacheable.
    exp::Point plain = smallPoint();
    exp::Point host = smallPoint();
    host.cfg.hostStats = true;
    EXPECT_EQ(exp::pointDigest(plain), exp::pointDigest(host));
    EXPECT_TRUE(plain.cacheable());
    EXPECT_FALSE(host.cacheable());
}

TEST(HostStats, ArenaHighWaterIsMonotone)
{
    mem::TxnArenaStats before = mem::txnArenaStats();
    {
        mem::Txn txn;
        txn.note(mem::PathEvent::kRequest, 1);
        txn.note(mem::PathEvent::kBusGrant, 2);
    }
    mem::TxnArenaStats after = mem::txnArenaStats();
    EXPECT_GE(after.liveHighWater, before.liveHighWater);
    EXPECT_GE(after.liveHighWater, 1u);
    EXPECT_LE(after.live, after.liveHighWater);
}

// ----- result store telemetry --------------------------------------------

TEST(StoreTelemetry, CountsHitsMissesAndStores)
{
    ScratchStore store("test_store_telemetry");
    exp::Request req = smallRequest();
    req.store = store.path();

    exp::Submission first = exp::submit(req);  // miss + store
    exp::Submission second = exp::submit(req); // hit
    ASSERT_TRUE(first.telemetry.hasCacheStats);
    EXPECT_EQ(first.telemetry.cacheStats.hits, 0u);
    EXPECT_EQ(first.telemetry.cacheStats.misses, 1u);
    EXPECT_EQ(first.telemetry.cacheStats.stores, 1u);
    ASSERT_TRUE(second.telemetry.hasCacheStats);
    EXPECT_EQ(second.telemetry.cacheStats.hits, 1u);
    EXPECT_EQ(second.telemetry.cacheStats.misses, 0u);
    EXPECT_EQ(second.telemetry.cacheStats.stores, 0u);
}

// ----- sweep JSON v3 -----------------------------------------------------

TEST(SweepJson, CarriesManifestAndTelemetry)
{
    ScratchFile json("test_sweep_v3.json");
    exp::Submission sub = exp::submit(smallRequest());
    const std::vector<exp::Point> &points = sub.points;
    const std::vector<exp::Result> &results = sub.results;

    const exp::SweepTelemetry &tel = sub.telemetry;
    EXPECT_EQ(tel.total, 1u);
    EXPECT_EQ(tel.cached, 0u);
    EXPECT_EQ(tel.simulated, 1u);
    EXPECT_GT(tel.wallMax, 0.0);
    EXPECT_GE(tel.wallP90, tel.wallP50);

    ASSERT_TRUE(exp::writeJson(json.path(), points, results, &tel));
    std::string text = json.contents();
    EXPECT_NE(text.find("\"version\": \"acp-exp-v3\""),
              std::string::npos);
    EXPECT_NE(text.find("\"manifest\": {"), std::string::npos);
    EXPECT_NE(text.find("\"schema\": \"acp-manifest-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"telemetry\": {"), std::string::npos);
    EXPECT_NE(text.find("\"pointWallP50\":"), std::string::npos);

    // Without a telemetry block the manifest still rides along.
    ScratchFile plain("test_sweep_v3_plain.json");
    ASSERT_TRUE(exp::writeJson(plain.path(), points, results));
    std::string plain_text = plain.contents();
    EXPECT_NE(plain_text.find("\"manifest\": {"), std::string::npos);
    EXPECT_EQ(plain_text.find("\"telemetry\""), std::string::npos);
}

} // namespace
