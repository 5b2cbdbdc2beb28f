/**
 * @file
 * Tests for the content-addressed result store (exp::ResultStore):
 * payload round-trip through the codec, journal replay reconstructing
 * LRU order across reopen, persistent eviction under the
 * ACP_CACHE_MAX_ENTRIES cap, journal compaction keeping every live
 * entry servable, and two processes sharing one store directory.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "exp/result_codec.hh"
#include "exp/result_store.hh"

using namespace acp;

namespace
{

/** RAII scratch store directory. */
class ScratchStore
{
  public:
    explicit ScratchStore(const char *name) : path_(name) { clear(); }
    ~ScratchStore() { clear(); }
    const std::string &path() const { return path_; }

  private:
    void
    clear()
    {
        std::remove((path_ + "/index.txt").c_str());
        std::remove((path_ + "/data.txt").c_str());
        ::rmdir(path_.c_str());
    }
    std::string path_;
};

std::string
digestOf(char fill)
{
    return std::string(64, fill);
}

exp::Result
sampleResult(std::uint64_t insts)
{
    exp::Result result;
    result.run.insts = insts;
    result.run.cycles = insts * 3;
    result.run.ipc = 1.0 / 3.0;
    result.counters["l2.misses"] = 17;
    result.counters["core.auth_commit_stalls"] = insts + 1;
    exp::AvgStat avg;
    avg.count = 4;
    avg.sum = 10.5;
    avg.min = 1.25;
    avg.max = 5.5;
    result.averages["bus.queue_len"] = avg;
    exp::DistStat dist;
    dist.count = 3;
    dist.sum = 9;
    dist.min = 1;
    dist.max = 5;
    dist.buckets = {1, 0, 2};
    result.distributions["mem.latency"] = dist;
    return result;
}

TEST(ResultCodec, RoundTripsEveryStatKind)
{
    exp::Result in = sampleResult(9000);
    std::string line = exp::encodeResultTokens(in);

    exp::Result out;
    exp::decodeResultTokens(line, out);
    EXPECT_EQ(out.run.insts, in.run.insts);
    EXPECT_EQ(out.run.cycles, in.run.cycles);
    EXPECT_EQ(out.run.ipc, in.run.ipc); // %.17g: bit-exact doubles
    EXPECT_EQ(out.counters, in.counters);
    ASSERT_EQ(out.averages.size(), 1u);
    EXPECT_EQ(out.averages["bus.queue_len"].sum,
              in.averages["bus.queue_len"].sum);
    ASSERT_EQ(out.distributions.size(), 1u);
    EXPECT_EQ(out.distributions["mem.latency"].buckets,
              in.distributions["mem.latency"].buckets);

    // Encoding is deterministic: decode-encode is a fixed point.
    EXPECT_EQ(exp::encodeResultTokens(out), line);
}

TEST(ResultStore, PersistsAcrossReopen)
{
    ScratchStore dir("test_store_reopen");
    {
        exp::ResultStore store(dir.path());
        store.put(digestOf('a'), sampleResult(1000));
        store.put(digestOf('b'), sampleResult(2000));
        EXPECT_EQ(store.size(), 2u);
    }
    exp::ResultStore reopened(dir.path());
    EXPECT_EQ(reopened.size(), 2u);
    exp::Result out;
    ASSERT_TRUE(reopened.lookup(digestOf('a'), out));
    EXPECT_TRUE(out.fromCache);
    EXPECT_EQ(out.run.insts, 1000u);
    EXPECT_EQ(out.counters, sampleResult(1000).counters);
    EXPECT_EQ(reopened.stats().hits, 1u);
    EXPECT_FALSE(reopened.lookup(digestOf('z'), out));
    EXPECT_EQ(reopened.stats().misses, 1u);
}

TEST(ResultStore, LruOrderSurvivesReopen)
{
    ScratchStore dir("test_store_lru");
    {
        exp::ResultStore store(dir.path());
        store.put(digestOf('a'), sampleResult(1));
        store.put(digestOf('b'), sampleResult(2));
        store.put(digestOf('c'), sampleResult(3));
        // Touch 'a': it becomes most-recent, 'b' is now the LRU tail.
        exp::Result out;
        ASSERT_TRUE(store.lookup(digestOf('a'), out));
    }
    // Reopen with a cap of 2: replaying the journal must evict 'b'
    // (the true LRU), not 'a' (which the touch refreshed).
    exp::ResultStore capped(dir.path(), 2);
    EXPECT_EQ(capped.size(), 2u);
    exp::Result out;
    EXPECT_TRUE(capped.lookup(digestOf('a'), out));
    EXPECT_TRUE(capped.lookup(digestOf('c'), out));
    EXPECT_FALSE(capped.lookup(digestOf('b'), out));
}

TEST(ResultStore, EvictionIsJournaledNotJustInMemory)
{
    ScratchStore dir("test_store_evict_journal");
    {
        exp::ResultStore store(dir.path(), 1);
        store.put(digestOf('a'), sampleResult(1));
        store.put(digestOf('b'), sampleResult(2));
        EXPECT_EQ(store.size(), 1u);
        EXPECT_EQ(store.stats().evictions, 1u);
    }
    // Uncapped reopen: 'a' must stay gone.
    exp::ResultStore reopened(dir.path());
    EXPECT_EQ(reopened.size(), 1u);
    exp::Result out;
    EXPECT_FALSE(reopened.lookup(digestOf('a'), out));
    EXPECT_TRUE(reopened.lookup(digestOf('b'), out));
}

TEST(ResultStore, CompactionKeepsEveryLiveEntry)
{
    ScratchStore dir("test_store_compact");
    {
        exp::ResultStore store(dir.path(), 1);
        // Each put past the cap evicts the previous entry: dead
        // journal records pile up until compaction rewrites both
        // files around the live set.
        for (char c = 'a'; c <= 'z'; ++c)
            store.put(digestOf(c), sampleResult(std::uint64_t(c)));
        EXPECT_EQ(store.size(), 1u);
        EXPECT_EQ(store.stats().evictions, 25u);
    }
    exp::ResultStore reopened(dir.path());
    EXPECT_EQ(reopened.size(), 1u);
    exp::Result out;
    ASSERT_TRUE(reopened.lookup(digestOf('z'), out));
    EXPECT_EQ(out.run.insts, std::uint64_t('z'));

    // The journal stayed bounded: far fewer lines than 26 puts + 25
    // evictions would have appended without compaction.
    std::FILE *f = std::fopen((dir.path() + "/index.txt").c_str(), "r");
    ASSERT_NE(f, nullptr);
    int lines = 0;
    for (int ch; (ch = std::fgetc(f)) != EOF;)
        if (ch == '\n')
            ++lines;
    std::fclose(f);
    EXPECT_LT(lines, 26);
}

/** Digest of entry @p i written by writer @p writer: distinct for
 *  every (writer, i), 64 hex characters like a real pointDigest. */
std::string
writerDigest(int writer, int i)
{
    char buf[65];
    std::snprintf(buf, sizeof(buf), "%032x%032x", writer, i);
    return buf;
}

TEST(ResultStore, TwoProcessesAppendWithoutLosingEntries)
{
    ScratchStore dir("test_store_two_procs");
    constexpr int kWriters = 2;
    constexpr int kPerWriter = 3000;
    // Open the store once so both writers find an initialised index.
    { exp::ResultStore init(dir.path()); }

    pid_t pids[kWriters];
    for (int w = 0; w < kWriters; ++w) {
        pids[w] = ::fork();
        ASSERT_GE(pids[w], 0);
        if (pids[w] == 0) {
            exp::ResultStore store(dir.path());
            for (int i = 0; i < kPerWriter; ++i)
                store.put(writerDigest(w, i),
                          sampleResult(std::uint64_t(w) * kPerWriter + i));
            ::_exit(0);
        }
    }
    for (pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    // Every journaled span must point at its own payload: a put whose
    // data.txt offset was taken before another process's append lands
    // would decode to the wrong result, or fail to decode and drop.
    exp::ResultStore reopened(dir.path());
    EXPECT_EQ(reopened.size(), std::size_t(kWriters * kPerWriter));
    int wrong = 0;
    for (int w = 0; w < kWriters; ++w) {
        for (int i = 0; i < kPerWriter; ++i) {
            exp::Result out;
            std::uint64_t insts = std::uint64_t(w) * kPerWriter + i;
            if (!reopened.lookup(writerDigest(w, i), out) ||
                out.run.insts != insts ||
                out.counters != sampleResult(insts).counters)
                ++wrong;
        }
    }
    EXPECT_EQ(wrong, 0) << "entries lost or decoded to another result";
}

TEST(ResultStore, CompactionKeepsAnotherProcessesEntries)
{
    ScratchStore dir("test_store_compact_shared");
    constexpr int kPuts = 1500;
    { exp::ResultStore init(dir.path()); }

    // The writer re-puts one hot digest twice per new entry, so dead
    // journal records keep outrunning live ones and every open below
    // finds compaction due while the writer is still appending.
    const std::string hot = digestOf('h');
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        exp::ResultStore store(dir.path());
        for (int i = 0; i < kPuts; ++i) {
            store.put(writerDigest(0, i), sampleResult(std::uint64_t(i)));
            store.put(hot, sampleResult(7));
            store.put(hot, sampleResult(7));
        }
        ::_exit(0);
    }
    int status = 0;
    int opens = 0;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
        exp::ResultStore compactor(dir.path());
        ++opens;
    }
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    EXPECT_GT(opens, 0);

    exp::ResultStore reopened(dir.path());
    EXPECT_EQ(reopened.size(), std::size_t(kPuts + 1));
    int wrong = 0;
    for (int i = 0; i < kPuts; ++i) {
        exp::Result out;
        if (!reopened.lookup(writerDigest(0, i), out) ||
            out.run.insts != std::uint64_t(i))
            ++wrong;
    }
    EXPECT_EQ(wrong, 0) << "compaction dropped the writer's entries";
}

} // namespace
