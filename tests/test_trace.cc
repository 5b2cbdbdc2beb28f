/**
 * @file
 * Tests for --trace (sim::System::enableTrace + obs::writeChromeTrace):
 * trace determinism, the guarantee that tracing never perturbs
 * simulation results, a well-formed Chrome trace-event document whose
 * async spans all pair up, one authentication span per request over
 * the whole window (each equal to its auth.verify_latency sample),
 * and one pipeline track per core.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/stats.hh"
#include "sim/system.hh"
#include "workloads/workloads.hh"

using namespace acp;
using core::AuthPolicy;

namespace
{

sim::SimConfig
smallConfig(AuthPolicy policy)
{
    sim::SimConfig cfg;
    cfg.policy = policy;
    cfg.memoryBytes = 16ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    return cfg;
}

workloads::WorkloadParams
smallParams()
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 128 * 1024;
    return params;
}

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

  private:
    std::string path_;
};

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return "";
    std::string text;
    char chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        text.append(chunk, n);
    std::fclose(f);
    return text;
}

/** Fast-forward, trace a timed window, and return the trace text. */
std::string
tracedRun(sim::System &system, std::uint64_t warmup, std::uint64_t insts,
          const char *file)
{
    ScratchFile out(file);
    system.fastForward(warmup);
    system.enableTrace();
    system.measureTimed(insts, insts * 400);
    EXPECT_TRUE(system.writeTrace(out.path()));
    return slurp(out.path());
}

/** One trace event, from its line of writeChromeTrace output (the
 *  writer puts every event on a line of its own). */
struct Event
{
    std::string ph, cat, name, id;
    std::uint64_t ts = 0;
    unsigned tid = 0;
    std::map<std::string, std::string> args;
};

/** Value of "key": in @p obj, up to the next ',' or '}' (unquoted). */
std::string
field(const std::string &obj, const std::string &key)
{
    std::size_t at = obj.find("\"" + key + "\": ");
    if (at == std::string::npos)
        return "";
    at += key.size() + 4;
    std::size_t end = obj.find_first_of(",}", at);
    std::string v = obj.substr(at, end - at);
    if (v.size() >= 2 && v.front() == '"')
        v = v.substr(1, v.size() - 2);
    return v;
}

std::vector<Event>
parseEvents(const std::string &text)
{
    std::vector<Event> events;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.find("{\"ph\": ") == std::string::npos)
            continue;
        std::size_t args_at = line.find("\"args\": {");
        std::string head =
            args_at == std::string::npos ? line : line.substr(0, args_at);
        Event ev;
        ev.ph = field(head, "ph");
        ev.cat = field(head, "cat");
        ev.name = field(head, "name");
        ev.id = field(head, "id");
        ev.ts = std::strtoull(field(head, "ts").c_str(), nullptr, 10);
        ev.tid = unsigned(std::strtoul(field(head, "tid").c_str(),
                                       nullptr, 10));
        if (args_at != std::string::npos) {
            std::string args = line.substr(args_at + 8);
            for (const char *key :
                 {"auth_seq", "ok", "line", "pc", "seq", "name"})
                if (args.find(std::string("\"") + key + "\": ") !=
                    std::string::npos)
                    ev.args[key] = field(args, key);
        }
        events.push_back(ev);
    }
    return events;
}

} // namespace

TEST(Trace, DeterministicAcrossIdenticalRuns)
{
    std::string first, second;
    for (std::string *sink : {&first, &second}) {
        sim::System system(smallConfig(AuthPolicy::kAuthThenCommit),
                           workloads::build("mcf", smallParams()));
        *sink = tracedRun(system, 2000, 2000, "test_trace_det.json");
    }
    ASSERT_NE(first.find("\"auth.verify\""), std::string::npos);
    EXPECT_EQ(first, second);
}

TEST(Trace, TracingNeverPerturbsResults)
{
    // An untraced run and a traced one (every retired transaction and
    // pipeline instant kept) must produce bit-identical simulations:
    // identical run results and identical full statistics dumps.
    sim::RunResult run_off, run_on;
    std::string stats_off, stats_on;
    {
        sim::System system(smallConfig(AuthPolicy::kAuthThenCommit),
                           workloads::build("swim", smallParams()));
        system.fastForward(2000);
        run_off = system.measureTimed(3000, 3000 * 400);
        stats_off = system.dumpStats();
        EXPECT_TRUE(system.hier().ctrl().retired().empty());
        EXPECT_TRUE(system.core().pipelineTrace().empty());
    }
    {
        sim::System system(smallConfig(AuthPolicy::kAuthThenCommit),
                           workloads::build("swim", smallParams()));
        system.fastForward(2000);
        system.enableTrace();
        run_on = system.measureTimed(3000, 3000 * 400);
        stats_on = system.dumpStats();
        EXPECT_FALSE(system.hier().ctrl().retired().empty());
        EXPECT_FALSE(system.core().pipelineTrace().empty());
    }
    EXPECT_EQ(run_off.insts, run_on.insts);
    EXPECT_EQ(run_off.cycles, run_on.cycles);
    EXPECT_EQ(run_off.ipc, run_on.ipc);
    EXPECT_EQ(run_off.reason, run_on.reason);
    EXPECT_EQ(stats_off, stats_on);
}

TEST(Trace, OneAuthSpanPerRequestEachEqualToItsLatencySample)
{
    // The acpsim smoke window: mcf under authen-then-commit, 10k warmup
    // and 20k timed instructions. Every request of the window gets its
    // kDecryptDone -> kVerifyDone span, and the spans are exactly the
    // engine's auth.verify_latency samples.
    sim::SimConfig cfg = smallConfig(AuthPolicy::kAuthThenCommit);
    cfg.memoryBytes = 256ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    sim::System system(cfg, workloads::build("mcf"));
    std::string text = tracedRun(system, 10000, 20000, "test_trace_auth.json");

    std::map<std::string, std::uint64_t> begin; // auth seq -> ts
    StatDistribution spans;
    const secmem::AuthEngine &engine = system.hier().ctrl().authEngine();
    for (const Event &ev : parseEvents(text)) {
        if (ev.name != "auth.verify")
            continue;
        ASSERT_EQ(ev.cat, "auth");
        ASSERT_EQ(ev.args.at("auth_seq"), ev.id);
        if (ev.ph == "b") {
            ASSERT_TRUE(begin.emplace(ev.id, ev.ts).second)
                << "two spans for auth seq " << ev.id;
            continue;
        }
        ASSERT_EQ(ev.ph, "e");
        auto it = begin.find(ev.id);
        ASSERT_NE(it, begin.end()) << "verify without arrival " << ev.id;
        ASSERT_GE(ev.ts, it->second);
        // The span ends at the engine's verdict for that request...
        EXPECT_EQ(ev.ts, engine.doneCycle(std::stoull(ev.id)));
        spans.sample(ev.ts - it->second);
    }

    struct Capture final : StatVisitor
    {
        void
        onCounter(const std::string &name, std::uint64_t value) override
        {
            if (name == "auth.requests")
                requests = value;
        }
        void
        onDistribution(const std::string &name,
                       const StatDistribution &d) override
        {
            if (name == "auth.verify_latency_hist")
                latency = d;
        }
        std::uint64_t requests = 0;
        StatDistribution latency;
    } stats;
    system.visitStats(stats);

    // ...and the spans are the latency samples, one per request.
    ASSERT_GT(stats.requests, 1000u);
    EXPECT_EQ(spans.count(), stats.requests);
    EXPECT_EQ(spans.sum(), stats.latency.sum());
    EXPECT_EQ(spans.min(), stats.latency.min());
    EXPECT_EQ(spans.max(), stats.latency.max());
    EXPECT_EQ(spans.buckets(), stats.latency.buckets());
}

TEST(Trace, EachCoreHasItsOwnPipelineTrack)
{
    sim::SimConfig cfg = smallConfig(AuthPolicy::kAuthThenCommit);
    cfg.numCores = 2;
    sim::System system(cfg, workloads::build("mcf", smallParams()));
    std::vector<Event> events =
        parseEvents(tracedRun(system, 1000, 1000, "test_trace_cores.json"));

    std::map<unsigned, std::string> track; // tid -> thread name
    std::map<unsigned, std::uint64_t> commits;
    std::set<unsigned> pipeline_tids;
    for (const Event &ev : events) {
        if (ev.ph == "M")
            track[ev.tid] = ev.args.at("name");
        else if (ev.cat == "pipeline")
            pipeline_tids.insert(ev.tid);
        if (ev.name == "commit")
            ++commits[ev.tid];
    }
    EXPECT_EQ(track.size(), 3u);
    EXPECT_EQ(track[0], "cpu0.core");
    EXPECT_EQ(track[1], "cpu1.core");
    EXPECT_EQ(track[2], "secmem");
    EXPECT_EQ(pipeline_tids, (std::set<unsigned>{0, 1}));
    // A core's commit instants land on its own track only.
    for (unsigned i = 0; i < 2; ++i)
        EXPECT_EQ(commits[i], system.core(i).instsCommitted())
            << "core " << i;
}

TEST(TraceJson, ChromeTraceIsWellFormed)
{
    sim::System system(smallConfig(AuthPolicy::kCommitPlusFetch),
                       workloads::build("mcf", smallParams()));
    std::string text = tracedRun(system, 1000, 1000, "test_trace_chrome.json");

    // Structural sanity a JSON parser would also enforce: balanced
    // braces/brackets (no string in the output contains either), an
    // even quote count, and the Chrome trace framing keys.
    long depth = 0;
    std::uint64_t quotes = 0;
    for (char c : text) {
        if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        else if (c == '"')
            ++quotes;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(quotes % 2, 0u);
    EXPECT_EQ(text.front(), '{');
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(text.find("\"auth.verify\""), std::string::npos);
    EXPECT_NE(text.find("\"fetch_gate\""), std::string::npos);

    // Every async begin has an end with the same (cat, id, name), at
    // or after it.
    std::map<std::tuple<std::string, std::string, std::string>,
             std::vector<std::uint64_t>>
        open;
    std::uint64_t spans = 0;
    for (const Event &ev : parseEvents(text)) {
        auto key = std::make_tuple(ev.cat, ev.id, ev.name);
        if (ev.ph == "b") {
            open[key].push_back(ev.ts);
        } else if (ev.ph == "e") {
            ASSERT_FALSE(open[key].empty()) << ev.cat << " " << ev.name;
            EXPECT_GE(ev.ts, open[key].back());
            open[key].pop_back();
            ++spans;
        }
    }
    EXPECT_GT(spans, 0u);
    for (const auto &[key, begins] : open)
        EXPECT_TRUE(begins.empty()) << std::get<0>(key) << " "
                                    << std::get<2>(key) << " unclosed";
}
