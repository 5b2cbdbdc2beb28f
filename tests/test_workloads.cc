/**
 * @file
 * Workload tests: every kernel builds, runs under co-simulation (the
 * strongest architectural check), and exhibits its intended memory
 * behaviour class (miss rates).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "crypto/sha256.hh"
#include "printers.hh"
#include "sim/system.hh"
#include "workloads/workloads.hh"

using namespace acp;

namespace
{

sim::SimConfig
smallCfg()
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 64ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    cfg.policy = core::AuthPolicy::kAuthThenCommit;
    return cfg;
}

workloads::WorkloadParams
smallParams()
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20; // 1MB: fast tests, still > L2/4
    return params;
}

/** Lower-case hex SHA-256 of @p prog's image: its code words, then
 *  each data segment's base and bytes (integers little-endian). */
std::string
imageDigest(const isa::Program &prog)
{
    crypto::Sha256 sha;
    auto put = [&sha](std::uint64_t value, unsigned bytes) {
        std::uint8_t le[8];
        for (unsigned b = 0; b < bytes; ++b)
            le[b] = std::uint8_t(value >> (8 * b));
        sha.update(le, bytes);
    };
    for (std::uint32_t word : prog.code)
        put(word, 4);
    for (const isa::DataSegment &seg : prog.data) {
        put(seg.base, 8);
        sha.update(seg.bytes.data(), seg.bytes.size());
    }
    std::uint8_t digest[crypto::kSha256DigestBytes];
    sha.final(digest);
    static const char kHex[] = "0123456789abcdef";
    std::string out;
    for (std::uint8_t byte : digest) {
        out += kHex[byte >> 4];
        out += kHex[byte & 15];
    }
    return out;
}

} // namespace

TEST(Workloads, CatalogHas18)
{
    EXPECT_EQ(workloads::catalog().size(), 18u);
    EXPECT_EQ(workloads::intNames().size(), 9u);
    EXPECT_EQ(workloads::fpNames().size(), 9u);
}

TEST(Workloads, AllNamesAreIntThenFp)
{
    std::vector<std::string> names = workloads::intNames();
    for (const std::string &name : workloads::fpNames())
        names.push_back(name);
    EXPECT_EQ(workloads::allNames(), names);
}

/** Parameterized: every workload runs 30k instructions co-simulated. */
class EveryWorkload : public ::testing::TestWithParam<std::string>
{};

TEST_P(EveryWorkload, RunsCosimulated)
{
    isa::Program prog = workloads::build(GetParam(), smallParams());
    sim::System system(smallCfg(), prog);
    system.enableCosim();
    system.fastForward(5000);
    sim::RunResult res = system.measureTimed(30000, 30'000'000);
    EXPECT_EQ(res.reason, cpu::StopReason::kInstLimit) << GetParam();
    EXPECT_GE(res.insts, 30000u);
    EXPECT_GT(res.ipc, 0.0);
}

/** Every kernel builds at working sets from 64 KiB to 64 MiB (the
 *  catalog default, 4 MiB, included) and co-simulates a short window
 *  there: no immediate overflows, no address past its slice. */
TEST_P(EveryWorkload, RunsAtEveryWorkingSet)
{
    sim::SimConfig cfg = smallCfg();
    cfg.memoryBytes = 256ULL << 20; // acpsim's default memory
    cfg.protectedBytes = cfg.memoryBytes;
    for (std::uint64_t ws = 64ULL << 10; ws <= 64ULL << 20; ws <<= 2) {
        workloads::WorkloadParams params;
        params.workingSetBytes = ws;
        sim::System system(cfg, workloads::build(GetParam(), params));
        system.enableCosim();
        sim::RunResult res = system.measureTimed(2000, 2'000'000);
        EXPECT_EQ(res.reason, cpu::StopReason::kInstLimit)
            << GetParam() << " at " << ws << " bytes";
    }
}

INSTANTIATE_TEST_SUITE_P(All, EveryWorkload,
                         ::testing::ValuesIn(workloads::allNames()),
                         [](const auto &info) { return info.param; });

/** Every kernel under every policy: a short co-simulated window at
 *  512 KiB. Each policy reads a different part of what dispatch and
 *  issue record: the commit gate its gate tag, the write gate a
 *  store's issue tag, the fetch gate the LastRequest sample, and
 *  obfuscation the remap layer's translated addresses. */
class EveryWorkloadAndPolicy
    : public ::testing::TestWithParam<
          std::tuple<std::string, core::AuthPolicy>>
{};

TEST_P(EveryWorkloadAndPolicy, RunsCosimulated)
{
    const auto &[name, policy] = GetParam();
    workloads::WorkloadParams params;
    params.workingSetBytes = 512 << 10;
    sim::SimConfig cfg = sim::paperConfig();
    cfg.policy = policy;
    sim::System system(cfg, workloads::build(name, params));
    system.enableCosim();
    system.fastForward(5000);
    sim::RunResult res = system.measureTimed(10000, 10'000'000);
    EXPECT_EQ(res.reason, cpu::StopReason::kInstLimit);
    EXPECT_GE(res.insts, 10000u);
}

INSTANTIATE_TEST_SUITE_P(
    All, EveryWorkloadAndPolicy,
    ::testing::Combine(
        ::testing::ValuesIn(workloads::allNames()),
        ::testing::Values(core::AuthPolicy::kBaseline,
                          core::AuthPolicy::kAuthThenIssue,
                          core::AuthPolicy::kAuthThenWrite,
                          core::AuthPolicy::kAuthThenCommit,
                          core::AuthPolicy::kAuthThenFetch,
                          core::AuthPolicy::kCommitPlusFetch,
                          core::AuthPolicy::kCommitPlusObfuscation)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           core::policyName(std::get<1>(info.param));
        for (char &ch : name)
            if (ch == '-' || ch == '+')
                ch = '_';
        return name;
    });

TEST(Workloads, McfIsMemoryBound)
{
    isa::Program prog = workloads::build("mcf", smallParams());
    sim::System system(smallCfg(), prog);
    system.fastForward(20000);
    sim::RunResult res = system.measureTimed(50000, 100'000'000);
    // Pointer chasing over 1MB in a 256KB L2: low IPC, many L2 misses.
    EXPECT_LT(res.ipc, 0.5);
    EXPECT_GT(system.hier().l2().misses(), 1000u);
}

TEST(Workloads, ArtStreamsThroughL2)
{
    isa::Program prog = workloads::build("art", smallParams());
    sim::System system(smallCfg(), prog);
    system.fastForward(20000);
    system.measureTimed(50000, 100'000'000);
    EXPECT_GT(system.hier().l2().misses(), 500u);
}

TEST(Workloads, UnknownNameIsFatal)
{
    EXPECT_EXIT(workloads::build("nonesuch", smallParams()),
                ::testing::ExitedWithCode(1), "unknown workload");
}

// mcf splits its working set into 64-byte nodes and indexes them
// modulo the node count: a set below one line has no node at all.
TEST(Workloads, WorkingSetBelowOneLineIsFatal)
{
    workloads::WorkloadParams params = smallParams();
    params.workingSetBytes = 0;
    EXPECT_EXIT(workloads::build("mcf", params),
                ::testing::ExitedWithCode(1), "working set of 0 bytes");
}

TEST(Workloads, DeterministicAcrossBuilds)
{
    workloads::WorkloadParams params = smallParams();
    isa::Program a = workloads::build("twolf", params);
    isa::Program b = workloads::build("twolf", params);
    EXPECT_EQ(a.code, b.code);
    ASSERT_EQ(a.data.size(), b.data.size());
    for (std::size_t i = 0; i < a.data.size(); ++i) {
        EXPECT_EQ(a.data[i].base, b.data[i].base);
        EXPECT_EQ(a.data[i].bytes, b.data[i].bytes);
    }
}

/** Pins every kernel's image at smallParams() byte for byte, so a
 *  change to how a kernel lays out or packs its data (not only to
 *  what a few digested runs happen to read) fails here. After a
 *  deliberate change to a kernel only: empty its digest, rebuild,
 *  run this test and paste the printed actual value back. */
TEST(Workloads, ImagesMatchRecordedDigests)
{
    struct Recorded
    {
        const char *name;
        const char *digest;
    };
    static const Recorded kRecorded[] = {
        {"bzip2",
         "8fade2941dde9f3a91d5c9101d6c7e24c764ff26195494a6305a251ffdffbe02"},
        {"gcc",
         "a4de8b3feb065434d273fdb79cd83e290292357c2aa8abf0d2c4558ce43e3605"},
        {"gzip",
         "cfd017806c4c6e13ba6a20cdc18ab2479fb5306d05e465008a407bb312631e7a"},
        {"mcf",
         "c70d414a6baf5c5ab055738de52bad2f82838fa26d4510a95a475158c103e1bd"},
        {"parser",
         "3ca63c4cd5a7f7c2cbbcc4a7ad205ff645cdb9dce109197b75f5d9948fe532ab"},
        {"twolf",
         "e794fdfca97ccc3ed881916c297995ed49246feb37cb3817bcdec04c25053326"},
        {"vortex",
         "98609e0d9c360accba1ec16a06c8875088de3f3acc880d43a0f91ab380564f8e"},
        {"vpr",
         "fb81a4fee4dd5171eb1cb5bfcdb982a5c85087074623239bc5145e066db7ceaa"},
        {"gap",
         "3f516960b552ae7587baa11144bd3c69ab3c014a99c627787a7e8836a5540508"},
        {"ammp",
         "74fe4539d6e380916aca1ffed64292a706ab184458256fd8fe82bc525e87a54c"},
        {"applu",
         "941b98c77c1c319c67efe47b9ce44dc23a6f6126528082492261b9cf66094d64"},
        {"apsi",
         "9c73f1d320e876b39a92306d1a3324ccfe77b9e50366434371d9569e0c08f36a"},
        {"art",
         "0441b5e3f1d601e93128b51f81a58ce46d9c3028e8aa185f749f93f47fe43f39"},
        {"equake",
         "672083b6e31992512c94248f4039ebafd2202367b1ac66140b9ef83f4f04b05c"},
        {"lucas",
         "583f72e066efb3d02696df90212f76a6c7f8040650c0287af6f1b06fad0d53ad"},
        {"mgrid",
         "f2a30f0eca87ef8ae85b8a296c978da90e276b1a5cd3019919e2f571f4f79721"},
        {"swim",
         "4770f1ed03077b5e4a9a654d2f251b0f9d1601170d6e398e97c7f1e287bfa5c2"},
        {"wupwise",
         "6034867a06e24a9a60ddc5dd832d48d18a05eae9b1dae3986c601abed5d85808"},
    };
    const std::vector<std::string> names = workloads::allNames();
    ASSERT_EQ(names.size(), std::size(kRecorded));
    for (std::size_t i = 0; i < names.size(); ++i) {
        ASSERT_EQ(names[i], kRecorded[i].name);
        EXPECT_EQ(imageDigest(workloads::build(names[i], smallParams())),
                  kRecorded[i].digest)
            << names[i];
    }
}
