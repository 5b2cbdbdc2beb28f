/**
 * @file
 * Fast-forward tests (System::fastForward). Two contracts:
 *   - a warm access looks each L1 line it touches up once, like a
 *     timed access, not once per byte;
 *   - the warmed cache state is pinned: every valid L1I/L1D/L2 line
 *     (address, dirty bit, data, LRU rank in its set, fill timing and
 *     auth tag) and the hierarchy's counters after fast-forward hash
 *     to recorded SHA-256 digests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/sha256.hh"
#include "isa/program.hh"
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

/** Feeds the warmed state into SHA-256. */
struct StateHash
{
    crypto::Sha256 sha;

    void
    add(const void *data, std::size_t len)
    {
        sha.update(static_cast<const std::uint8_t *>(data), len);
    }

    void add64(std::uint64_t v) { add(&v, sizeof v); }

    /** Every valid line of @p c in set/way order, with its LRU rank
     *  (0 = most recent) among the valid lines of its set. Ranks, not
     *  raw stamps: the stamps count lookups, which a warm access may
     *  make fewer of without changing any replacement decision. */
    void
    addCache(cache::Cache &c)
    {
        struct Seen
        {
            Addr addr;
            const cache::CacheLine *line;
        };
        std::map<std::uint64_t, std::vector<Seen>> sets;
        c.forEachLineAddr([&](Addr addr, cache::CacheLine &line) {
            sets[(addr / c.lineBytes()) % c.numSets()].push_back(
                {addr, &line});
        });
        for (const auto &[set, lines] : sets) {
            for (const Seen &s : lines) {
                std::uint64_t rank = 0;
                for (const Seen &o : lines)
                    rank += o.line->lru > s.line->lru;
                add64(s.addr);
                add64(s.line->dirty);
                add(s.line->data.data(), s.line->data.size());
                add64(rank);
                add64(s.line->usableAt);
                add64(s.line->dataReadyAt);
                add64(s.line->authSeq);
            }
        }
    }

    std::string
    hex()
    {
        std::uint8_t digest[crypto::kSha256DigestBytes];
        sha.final(digest);
        std::string out;
        char buf[3];
        for (std::uint8_t byte : digest) {
            std::snprintf(buf, sizeof buf, "%02x", byte);
            out += buf;
        }
        return out;
    }
};

/** One fast-forwarded point: a config and one workload per core. */
struct WarmPoint
{
    std::string name;
    sim::SimConfig cfg;
    std::vector<std::string> workloads;
};

std::vector<WarmPoint>
warmPoints()
{
    std::vector<WarmPoint> points;
    for (const char *kernel : {"mcf", "gcc", "twolf", "swim", "equake",
                               "art"})
        for (AuthPolicy policy : {AuthPolicy::kBaseline,
                                  AuthPolicy::kCommitPlusObfuscation})
            points.push_back({std::string(kernel) + "/" +
                                  core::policyName(policy),
                              cfgFor(policy),
                              {kernel}});
    WarmPoint tree{"mcf/tree", cfgFor(AuthPolicy::kAuthThenCommit),
                   {"mcf"}};
    tree.cfg.hashTreeEnabled = true;
    points.push_back(tree);
    WarmPoint mix{"mcf+swim/commit", cfgFor(AuthPolicy::kAuthThenCommit),
                  {"mcf", "swim"}};
    mix.cfg.numCores = 2;
    points.push_back(mix);
    return points;
}

/** Digest of @p point's caches and hierarchy counters after a
 *  fast-forward long enough to evict and write back. The l1d.hits
 *  lines (a warm access used to look L1D up once per byte) and
 *  extmem.fetches (program loading used to count a fetch per partial
 *  line) are left out of the dump. */
std::string
warmDigest(const WarmPoint &point)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    std::vector<isa::Program> progs;
    for (const std::string &workload : point.workloads)
        progs.push_back(workloads::build(workload, params));
    sim::System system(point.cfg, std::move(progs));
    system.fastForward(200000);

    StateHash h;
    for (unsigned c = 0; c < system.numCores(); ++c) {
        h.addCache(system.hier().l1i(c));
        h.addCache(system.hier().l1d(c));
        h.addCache(system.hier().l2(c));
    }
    std::istringstream dump(system.dumpStats());
    std::string line;
    while (std::getline(dump, line)) {
        std::string name = line.substr(0, line.find(' '));
        if (name == "extmem.fetches" || name == "l1d.hits" ||
            (name.size() > 8 &&
             name.compare(name.size() - 9, 9, ".l1d.hits") == 0))
            continue;
        h.add(line.data(), line.size());
        h.add("\n", 1);
    }
    return h.hex();
}

} // namespace

// Aligned 1-, 4- and 8-byte loads and stores, each to one L1D line:
// fast-forward must look L1D up exactly once per data access.
TEST(FastForward, CountsOneL1dLookupPerAccess)
{
    isa::ProgramBuilder pb(0x1000, "widths");
    pb.li(5, 0x20000);
    pb.li(6, 0x1122334455667788ULL);
    unsigned accesses = 0;
    for (int round = 0; round < 3; ++round) {
        for (std::int64_t off : {0, 64, 4096}) {
            pb.sd(6, off, 5);
            pb.sw(6, off + 8, 5);
            pb.sb(6, off + 12, 5);
            pb.ld(7, off, 5);
            pb.lw(7, off + 8, 5);
            pb.lb(7, off + 13, 5);
            accesses += 6;
        }
    }
    pb.halt();
    isa::Program prog = pb.finish();

    sim::System system(cfgFor(AuthPolicy::kAuthThenCommit), prog);
    system.fastForward(1000);
    cache::Cache &l1d = system.hier().l1d();
    EXPECT_EQ(l1d.hits() + l1d.misses(), accesses);
    EXPECT_EQ(l1d.misses(), 3u); // one cold miss per line
}

// The warmed state is pinned point by point: which lines fast-forward
// leaves in each cache, dirty or clean, with what data and in what LRU
// order, and with no fill timing or auth tag. The constants were
// recorded by running this test body against the hierarchy whose
// fast-forward walked a separate functional copy of the fill logic
// one byte at a time; with a digest string emptied, the failure
// message prints the value to record.
TEST(FastForward, WarmedStateMatchesRecordedDigests)
{
    struct Recorded
    {
        const char *point;
        const char *digest;
    };
    static const Recorded kRecorded[] = {
        {"mcf/baseline",
         "af68cb3b93da0fc29b01f35b80c54f16a32fe8fcb573501b34ca5c52a83fc478"},
        {"mcf/commit+obfuscation",
         "e61099601616de709f208c09dd675803f7691a4855a8d907a73d85f363f48ede"},
        {"gcc/baseline",
         "f8d69e1d3c2bcb0945daefbb6f85ae59441cd801922ea57788826fbf146e095b"},
        {"gcc/commit+obfuscation",
         "66e837d8c2629940b77f923067b4db9e68d0deb645dbc35123cc5945c3238c7b"},
        {"twolf/baseline",
         "a985da0c358112091aba094a88e97298a23d8029b290f5ef90bede7be1f03a2b"},
        {"twolf/commit+obfuscation",
         "3baff136b5547f81053440f7d171ff4ddf5527bd95e161b4d70ea5027cf117e8"},
        {"swim/baseline",
         "64b9f5a6d37d5e8006bcfce18d220ee9c976a57eb3bcf0d13d391d85fe07c8b0"},
        {"swim/commit+obfuscation",
         "365220fae66bcbc4ac39261383f2c6ca9fd40ab5b6066aedc3133b54cf7846dc"},
        {"equake/baseline",
         "40ebfbe804b8c58af99e8b59852323a03ac2e90f6e6a0c8b6d48b526c544f7a6"},
        {"equake/commit+obfuscation",
         "8a04b2aa718c663eb6c410dec3020a8cf6366819284edbd6d66c5de804e28a4a"},
        {"art/baseline",
         "6c507406c997cc00b435b627601284e00c6efe0b22516d278b55fa6ced568dfd"},
        {"art/commit+obfuscation",
         "fbbe100736668eb5e0fb17af01f574ff838f76e567873d107484ee5e9fc22157"},
        {"mcf/tree",
         "faec62767a70ab968789da520705559b940e130b5cb572430969d33bf822b521"},
        // Fast-forward depends on the policy only through whether the
        // remap layer exists, so this digest, recorded when cpu1 ran
        // baseline, holds for the uniform authen-then-commit point.
        {"mcf+swim/commit",
         "a6594a186f0c8838a9d35a7f728f005f20d7ee63939a313266a2b1b247cf1bb1"},
    };

    const std::vector<WarmPoint> points = warmPoints();
    ASSERT_EQ(points.size(), std::size(kRecorded));
    for (std::size_t i = 0; i < points.size(); ++i) {
        ASSERT_EQ(points[i].name, kRecorded[i].point);
        EXPECT_EQ(warmDigest(points[i]), kRecorded[i].digest)
            << points[i].name;
    }
}
