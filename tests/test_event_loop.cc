/**
 * @file
 * Event-loop tests (System::measureTimed). Four contracts:
 *   - the event loop is deterministic: repeated runs of the same point
 *     produce the same run result, stall taxonomy, stat dump, and
 *     profiler segments, on several workload x policy points;
 *   - the simulated timing is pinned: stat dumps and pipeline traces
 *     of a fixed set of points hash to recorded SHA-256 digests;
 *   - cores due in the same cycle run in core order, so cpu0's
 *     same-cycle bus requests are recorded before cpu1's;
 *   - only an observed window builds transaction timelines, and a
 *     profiled one still reports the recorded profile.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "crypto/sha256.hh"
#include "mem/txn.hh"
#include "obs/path_report.hh"
#include "sim/system.hh"
#include "workloads/workloads.hh"

using namespace acp;
using core::AuthPolicy;

namespace
{

sim::SimConfig
cfgFor(AuthPolicy policy)
{
    sim::SimConfig cfg;
    cfg.policy = policy;
    cfg.memoryBytes = 64ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    return cfg;
}

/** One measured point: run result + full stat dump + stall counters. */
struct PointOutcome
{
    sim::RunResult run;
    std::string stats;
    obs::StallArray stalls;
    Cycle cycles = 0;
};

PointOutcome
runPoint(const std::string &workload, AuthPolicy policy)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    sim::System system(cfgFor(policy),
                       workloads::build(workload, params));
    system.fastForward(10000);
    PointOutcome out;
    out.run = system.measureTimed(20000, 20'000'000);
    out.stats = system.dumpStats();
    out.stalls = system.core().stallCycles();
    out.cycles = system.core().cycles();
    return out;
}

std::string
sha256Hex(const std::string &bytes)
{
    auto digest = crypto::Sha256::digest(
        reinterpret_cast<const std::uint8_t *>(bytes.data()),
        bytes.size());
    static const char kHex[] = "0123456789abcdef";
    std::string out;
    for (std::uint8_t byte : digest) {
        out += kHex[byte >> 4];
        out += kHex[byte & 15];
    }
    return out;
}

/** One untampered point of the digest table: a config and one
 *  workload per core. */
struct DigestPoint
{
    std::string name;
    sim::SimConfig cfg;
    std::vector<std::string> workloads;
    /** Also digest core 0's pipeline trace. */
    bool trace = false;
};

/**
 * The points EventLoop.StatDumpsMatchRecordedDigests pins: 3 INT and
 * 3 FP kernels under all 7 policies, RUU sizes 96 and 200 on two
 * kernels, one hash-tree point, one 2-core mcf+swim point under
 * authen-then-commit, and two points whose pipeline trace is digested
 * too.
 */
std::vector<DigestPoint>
digestPoints()
{
    const AuthPolicy policies[] = {
        AuthPolicy::kBaseline,          AuthPolicy::kAuthThenIssue,
        AuthPolicy::kAuthThenWrite,     AuthPolicy::kAuthThenCommit,
        AuthPolicy::kAuthThenFetch,     AuthPolicy::kCommitPlusFetch,
        AuthPolicy::kCommitPlusObfuscation,
    };
    std::vector<DigestPoint> points;
    for (const char *kernel : {"mcf", "gcc", "twolf", "swim", "equake",
                               "art"})
        for (AuthPolicy policy : policies)
            points.push_back({std::string(kernel) + "/" +
                                  core::policyName(policy),
                              cfgFor(policy),
                              {kernel}});
    for (const char *kernel : {"gap", "equake"})
        for (unsigned ruu : {96u, 200u}) {
            DigestPoint p{std::string(kernel) + "/ruu" +
                              std::to_string(ruu),
                          cfgFor(AuthPolicy::kAuthThenCommit),
                          {kernel}};
            p.cfg.ruuSize = ruu;
            points.push_back(p);
        }
    DigestPoint tree{"mcf/tree", cfgFor(AuthPolicy::kAuthThenCommit),
                     {"mcf"}};
    tree.cfg.hashTreeEnabled = true;
    points.push_back(tree);
    DigestPoint mix{"mcf+swim/commit", cfgFor(AuthPolicy::kAuthThenCommit),
                    {"mcf", "swim"}};
    mix.cfg.numCores = 2;
    points.push_back(mix);
    DigestPoint traced{"mcf/commit/trace",
                       cfgFor(AuthPolicy::kAuthThenCommit),
                       {"mcf"}};
    traced.trace = true;
    points.push_back(traced);
    traced = {"equake/issue/trace", cfgFor(AuthPolicy::kAuthThenIssue),
              {"equake"}};
    traced.trace = true;
    points.push_back(traced);
    return points;
}

/** Digest of the stat dump plus the run result (and, for a traced
 *  point, a second digest of core 0's pipeline instants). */
std::pair<std::string, std::string>
digestOf(const DigestPoint &point)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    std::vector<isa::Program> progs;
    for (const std::string &workload : point.workloads)
        progs.push_back(workloads::build(workload, params));
    sim::System system(point.cfg, std::move(progs));
    system.fastForward(5000);
    if (point.trace)
        system.enableTrace();
    sim::RunResult run = system.measureTimed(5000, 20'000'000);

    char line[160];
    std::snprintf(line, sizeof line,
                  "insts=%llu cycles=%llu ipc=%.17g reason=%s\n",
                  (unsigned long long)run.insts,
                  (unsigned long long)run.cycles, run.ipc,
                  cpu::stopReasonName(run.reason));
    std::string trace;
    if (point.trace) {
        std::string bytes;
        for (const obs::PipelineEvent &e : system.core().pipelineTrace()) {
            char rec[96];
            std::snprintf(rec, sizeof rec, "%llu %u %llx %llx\n",
                          (unsigned long long)e.cycle, unsigned(e.kind),
                          (unsigned long long)e.a,
                          (unsigned long long)e.b);
            bytes += rec;
        }
        trace = sha256Hex(bytes);
    }
    return {sha256Hex(system.dumpStats() + line), trace};
}

} // namespace

// An event loop with a deterministic tie-break must be exactly
// reproducible: same point, same bits, every time.
TEST(EventLoop, EventLoopDeterministic)
{
    struct
    {
        const char *workload;
        AuthPolicy policy;
    } points[] = {
        {"mcf", AuthPolicy::kAuthThenCommit},
        {"gcc", AuthPolicy::kAuthThenIssue},
        {"twolf", AuthPolicy::kAuthThenWrite},
        {"bzip2", AuthPolicy::kCommitPlusFetch},
    };
    for (const auto &p : points) {
        PointOutcome first = runPoint(p.workload, p.policy);
        PointOutcome again = runPoint(p.workload, p.policy);

        EXPECT_EQ(first.run.insts, again.run.insts) << p.workload;
        EXPECT_EQ(first.run.cycles, again.run.cycles) << p.workload;
        EXPECT_EQ(first.run.reason, again.run.reason) << p.workload;
        EXPECT_EQ(first.cycles, again.cycles) << p.workload;
        for (unsigned s = 0; s < first.stalls.size(); ++s)
            EXPECT_EQ(first.stalls[s], again.stalls[s])
                << p.workload << " stall cause " << s;
        EXPECT_EQ(first.stats, again.stats) << p.workload;
    }
}

// Profiler segment decomposition must not move across runs either.
TEST(EventLoop, ProfilerSegmentsDeterministic)
{
    auto profiled = []() {
        workloads::WorkloadParams params;
        params.workingSetBytes = 1 << 20;
        sim::SimConfig cfg = cfgFor(AuthPolicy::kAuthThenCommit);
        cfg.profileEnabled = true;
        sim::System system(cfg, workloads::build("mcf", params));
        system.fastForward(10000);
        system.measureTimed(20000, 20'000'000);
        return system.pathProfile();
    };
    obs::PathProfile first = profiled();
    obs::PathProfile again = profiled();
    EXPECT_EQ(first.demandTxns, again.demandTxns);
    for (unsigned s = 0; s < obs::kNumPathSegments; ++s)
        EXPECT_EQ(first.demandSegCycles[s], again.demandSegCycles[s])
            << "segment " << s;
}

// Bit-identity of the timing model, pinned point by point. A change to
// how the core schedules work (which tick an operand wakes on, the
// order it issues or completes in) moves these digests even where the
// examples' outputs do not. The constants were recorded by running
// this test body against the per-tick RUU-scan core that the
// event-driven issue and completion stages replaced. The stats digests
// were re-recorded once since, when fast-forward began to look L1D up
// once per access instead of once per byte and program loading
// stopped counting a fetch for each partially provisioned line: the
// dumps moved only in their l1d.hits and extmem.fetches lines, and the
// pipeline-trace digests did not move. With a digest string emptied,
// the failure message prints the value to record. Re-record them only
// for a deliberate, documented model change.
TEST(EventLoop, StatDumpsMatchRecordedDigests)
{
    struct Recorded
    {
        const char *point;
        const char *stats;
        const char *trace; // "" unless the point is traced
    };
    static const Recorded kRecorded[] = {
        {"mcf/baseline",
         "cf3831e3d022c3630d596c63c693fd319b3d55888d29cac14be75836a0e5b13d",
         ""},
        {"mcf/authen-then-issue",
         "47b87010c71b4735354404734f9430eebb47926602a4c5dfd86804dd766edf85",
         ""},
        {"mcf/authen-then-write",
         "1814ae880502438658cf3d62e2d55e5def6d027af0796f89063d0d7432a7fb8d",
         ""},
        {"mcf/authen-then-commit",
         "2bb8469e8c26b666e44e0fbc2f8264c6fe78bc43c1c7387a649af5485f85361b",
         ""},
        {"mcf/authen-then-fetch",
         "a7fd90edcbbf0fbde6c9bb299c5b67c4732d432e8aab1e879dd23ed601727e93",
         ""},
        {"mcf/commit+fetch",
         "3250373f86d475bbe28331b87d395c8ad95a97d29cabb960e62c609837c13de5",
         ""},
        {"mcf/commit+obfuscation",
         "ee4bfbf0ef6ea1d1212f7a2dda8b55e2046caa84811a3dd838af0cf048fb1fd1",
         ""},
        {"gcc/baseline",
         "dfb056983de1c4f49e149fe95ec17db9909b67b9479833093bee2a65d399cd41",
         ""},
        {"gcc/authen-then-issue",
         "4505146971d3d2253152515486a9f689f3f80e0a105d88d9a2c1f43a33f284bc",
         ""},
        {"gcc/authen-then-write",
         "00f24d9b9945e79f33d2de306cedcf37d16cbc7226524c4ff252afff2c19c123",
         ""},
        {"gcc/authen-then-commit",
         "c5c733a1611066f47e315de476d28957d57f0fb0c9d934bf84a455396b035eb9",
         ""},
        {"gcc/authen-then-fetch",
         "c4bedb3943958b3cbb406fae0124a6a74bf9857a2b6b47356ab9e864d821d080",
         ""},
        {"gcc/commit+fetch",
         "c6b525c98725a377715b4e427a77bc23dcf2794da58d33cf79ff696bdccec199",
         ""},
        {"gcc/commit+obfuscation",
         "2acd802a53237bc8fdad99bdc2b62054c4e2bb23713500cd1f6be6b9e2f1c625",
         ""},
        {"twolf/baseline",
         "f5e3ea1f9a63fac33b5e102dcaa8b2d559dff4f9c0cf99da4e68fcd39b848599",
         ""},
        {"twolf/authen-then-issue",
         "b1ffddda09cce6cf2bade36539e184a7c5b6af467febdb46c67e4b20f0a5990f",
         ""},
        {"twolf/authen-then-write",
         "cfc901e2b0ddc5e0dbaba46120af39e5cdec8f06158142699b22f619dbf1d9d6",
         ""},
        {"twolf/authen-then-commit",
         "5f3d7e3235660f4569c419ef47ab8b4b029ca580fb23fbdaa6c7d6efcfec2681",
         ""},
        {"twolf/authen-then-fetch",
         "a78d5b1600f702c6137d49d9277e9a6ac97e8a43fd738b0df9bac89b211bb188",
         ""},
        {"twolf/commit+fetch",
         "e2f37197e1e6c20cdb6c0e37b8157323eceef7ba4a5a4665ff85a4de33fac636",
         ""},
        {"twolf/commit+obfuscation",
         "7559fc98c38e28e1e5d578024f66685dc668f4e11487f0c55a9e4b59b7dd0022",
         ""},
        {"swim/baseline",
         "46b043c7d1e49d9ac5dc9fca613390616e31da5c80bdd075ad558f6219074454",
         ""},
        {"swim/authen-then-issue",
         "f8825cdcd910b441713d9d4f32213a7bd47cb77d1fa528f7fbbf5a647ca38838",
         ""},
        {"swim/authen-then-write",
         "2926328639d8a3cbd03f9d7017a7791d896e2db3743400be3e9b49ece4c9af5a",
         ""},
        {"swim/authen-then-commit",
         "9e366c0c3b160db6a6dae90f200bcf112ae086ebd6f5d7672ed0d74124e11bb9",
         ""},
        {"swim/authen-then-fetch",
         "0edb81756a43bde154fc42d3c4815232d1394c9a9abdcfa211d33ae7afe6537c",
         ""},
        {"swim/commit+fetch",
         "7c325f8cfe866374b8e5308c1d50cc36c2235c51eb472cc4227f6351dd529131",
         ""},
        {"swim/commit+obfuscation",
         "b4ff3642be6f1e961bf40416471a1b255a48af35e30441c87ac14983e742e948",
         ""},
        {"equake/baseline",
         "823b38db7b07d33cc4f5c50c788fa93f2394d0614e9e39e30ea76641799266ee",
         ""},
        {"equake/authen-then-issue",
         "530ada2c88f08d0fa5b1862118e8bc8ecacbacb62c9206b8f00051d04a9dd74e",
         ""},
        {"equake/authen-then-write",
         "075229d688ba6edcfd83a1e389f515a1ef27432ee989c2b549cf3a39cb87a6d1",
         ""},
        {"equake/authen-then-commit",
         "ea438dd2aa5b63093714baa6b7bd8f6b3cd1ccef3b15114a9359c1e7bcf2a5c2",
         ""},
        {"equake/authen-then-fetch",
         "3202fcaca11d3d7d8f37a041d1dc42b07239e6a3738a206879c5dbbb33f46d68",
         ""},
        {"equake/commit+fetch",
         "0aceeb84bdf16ec14cda379622d9d2ed6fe9143431213ec4702bd7e11a517732",
         ""},
        {"equake/commit+obfuscation",
         "5566e90b2a2d230ad69f589af117a2d961e9a124bf6b57a34a0931acb64faf41",
         ""},
        {"art/baseline",
         "43d505fe0ee02af9bf466508db55dc4ff515d1178a5102f54728bcf80f4aa5f7",
         ""},
        {"art/authen-then-issue",
         "ca51aed5c950bad0dbdeb7fe152b7b7683d1252804b5113f5aa44f1ba394512f",
         ""},
        {"art/authen-then-write",
         "6b5e8f589524fc5b663cdda88a8b82710c690570c0b1ef18d2cf3000e6adf5c5",
         ""},
        {"art/authen-then-commit",
         "3c52d698832da612bd349508854c97338d2c50b3e79241a490928ad918436c85",
         ""},
        {"art/authen-then-fetch",
         "54e681423961b5b673317a622fa71c5f478ba1f431f53c35836f0349109fbd2e",
         ""},
        {"art/commit+fetch",
         "9cb5a66c4e7274038e831684521ca072885897e50b6d611a3a71d482e112fb6d",
         ""},
        {"art/commit+obfuscation",
         "bfccc5a59475aaff30b0effb775465a47d4c10df70ec6254e5836694d5317da8",
         ""},
        {"gap/ruu96",
         "f67d2c29122bdb60fd89d0fc8f49b2a22dce22f46d0a013b6fea83188a58eeac",
         ""},
        {"gap/ruu200",
         "09e189a4c262f34c6234cd6a462ae76f985ff9149e43de9b77215a697bb84a0d",
         ""},
        {"equake/ruu96",
         "c4a941a54b0ed10a4694884e777e26b92a3e35735251e1c412c3d926e573b1bf",
         ""},
        {"equake/ruu200",
         "a242aef02680a5e943d8e9cd6eb72415f89a4c637a5f9212b499b1a10706a273",
         ""},
        {"mcf/tree",
         "25be4acd2ed523018acb5f623da229ef3df382dc2e57282fb35478263c5c98bb",
         ""},
        // Recorded by running this test body with this uniform config
        // while SimConfig still had a per-core policy list.
        {"mcf+swim/commit",
         "fdff537b20a2c8f6d10ef7d224e2bbe77ba0dae8f8d62f926af5d8d4011f2157",
         ""},
        {"mcf/commit/trace",
         "2bb8469e8c26b666e44e0fbc2f8264c6fe78bc43c1c7387a649af5485f85361b",
         "b5b8477c38778d05f74e0c1a6a457af829212b42d24e1140cf951a52706efa47"},
        {"equake/issue/trace",
         "530ada2c88f08d0fa5b1862118e8bc8ecacbacb62c9206b8f00051d04a9dd74e",
         "e1c6d5ce545f3437457afeddd9a5fa32de95d8f3af357c49375b7feb1697fcc7"},
    };

    const std::vector<DigestPoint> points = digestPoints();
    ASSERT_EQ(points.size(), std::size(kRecorded));
    for (std::size_t i = 0; i < points.size(); ++i) {
        ASSERT_EQ(points[i].name, kRecorded[i].point);
        auto [stats, trace] = digestOf(points[i]);
        EXPECT_EQ(stats, kRecorded[i].stats) << points[i].name;
        EXPECT_EQ(trace, kRecorded[i].trace) << points[i].name;
    }
}

// No point of the table above writes a metadata victim back: at its
// 5k + 5k window every counter-cache, remap-entry and tree-node
// writeback count is 0. A long obfuscated window with the hash tree
// and a 4 KiB remap cache evicts dirty lines from all three metadata
// caches, in fast-forward and in the timed window, so this pins the
// one metadata-line access (secmem::touchMetaLine) on its writeback
// path. The digest was recorded by running this test body on the
// build in which each metadata cache had its own miss code.
TEST(EventLoop, MetadataWritebacksMatchRecordedDigest)
{
    static const char kRecorded[] =
        "5b1f14cb44b682ec89acc116cbd0c787b57575c87c9c2926cd01d964448c0860";
    struct Counters final : StatVisitor
    {
        std::map<std::string, std::uint64_t> values;
        void
        onCounter(const std::string &name, std::uint64_t value) override
        {
            values[name] = value;
        }
    };
    const char *const kWritebacks[] = {"counter_cache.writebacks",
                                       "remap.entry_writebacks",
                                       "tree.node_writebacks"};

    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    sim::SimConfig cfg = cfgFor(AuthPolicy::kCommitPlusObfuscation);
    cfg.hashTreeEnabled = true;
    cfg.remapCache.sizeBytes = 4 << 10;
    sim::System system(cfg, workloads::build("lucas", params));
    system.fastForward(300000);
    Counters warm;
    system.visitStats(warm);
    sim::RunResult run = system.measureTimed(30000, 30'000'000);
    Counters timed;
    system.visitStats(timed);
    for (const char *name : kWritebacks)
        EXPECT_GT(timed.values[name], warm.values[name])
            << name << " in the timed window";

    char line[160];
    std::snprintf(line, sizeof line,
                  "insts=%llu cycles=%llu ipc=%.17g reason=%s\n",
                  (unsigned long long)run.insts,
                  (unsigned long long)run.cycles, run.ipc,
                  cpu::stopReasonName(run.reason));
    EXPECT_EQ(sha256Hex(system.dumpStats() + line), kRecorded);
}

// Two cold cores start in the same cycle and both miss on their first
// fetch: cpu0 runs first on the tie, so its counter-line fetch and
// instruction fetch reach the bus trace before cpu1's, all four at
// the same request cycle.
TEST(EventLoop, SameCycleCoresRunInCoreOrder)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    sim::SimConfig cfg = cfgFor(AuthPolicy::kAuthThenCommit);
    cfg.numCores = 2;
    sim::System system(cfg, workloads::build("mcf", params));
    system.hier().ctrl().busTrace().enable(true);
    system.measureTimed(200, 1'000'000);

    const std::vector<mem::BusTxn> &txns =
        system.hier().ctrl().busTrace().txns();
    ASSERT_GE(txns.size(), 4u);
    const unsigned clients[] = {0, 0, 1, 1};
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(txns[i].client, clients[i]) << "record " << i;
        EXPECT_EQ(txns[i].cycle, txns[0].cycle) << "record " << i;
    }
}

// The controller builds a transaction's timeline only while something
// reads it. An unprofiled, untraced window allocates no timeline; a
// profiled one does, and its profile is the one recorded while every
// run still built every timeline (the digest of its JSON rendering;
// with the string emptied, the failure message prints the value).
TEST(EventLoop, OnlyAnObservedWindowBuildsTimelines)
{
    static const char kRecordedProfile[] =
        "22e72686ccfb9f35ee59bba0f414cea034d0d2524463c04f44e1cab5c3b51fb8";

    // Timeline allocations of one mcf window, profiled when @p profile
    // is given; it receives the digest of the profile's JSON.
    auto window = [](std::string *profile) {
        const std::uint64_t allocs0 = mem::txnArenaStats().allocs;
        workloads::WorkloadParams params;
        params.workingSetBytes = 1 << 20;
        sim::SimConfig cfg = cfgFor(AuthPolicy::kAuthThenCommit);
        cfg.profileEnabled = profile != nullptr;
        sim::System system(cfg, workloads::build("mcf", params));
        system.fastForward(5000);
        system.measureTimed(10000, 10'000'000);
        if (profile) {
            json::Writer w;
            obs::writePathProfile(w, system.pathProfile());
            *profile = sha256Hex(w.str());
        }
        return mem::txnArenaStats().allocs - allocs0;
    };

    EXPECT_EQ(window(nullptr), 0u);
    std::string profile;
    EXPECT_GT(window(&profile), 0u);
    EXPECT_EQ(profile, kRecordedProfile);
}
