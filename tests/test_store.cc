/**
 * @file
 * Tests for the content-addressed result store (exp::ResultStore):
 * payload round-trip through the codec, journal replay across reopen
 * (including a journal an older LRU-capped build wrote), hits that
 * leave both files untouched, and two processes sharing one store
 * directory.
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

    /** Contents of @p file inside the store directory. */
    std::string
    contents(const char *file) const
    {
        std::FILE *f = std::fopen((path_ + "/" + file).c_str(), "rb");
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

    /** Replace @p file inside the store directory with @p text. */
    void
    write(const char *file, const std::string &text) const
    {
        std::FILE *f = std::fopen((path_ + "/" + file).c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
    }

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

TEST(ResultStore, HitDoesNotWriteTheStore)
{
    ScratchStore dir("test_store_hit_reads_memory");
    exp::ResultStore store(dir.path());
    store.put(digestOf('a'), sampleResult(1));
    const std::string index = dir.contents("index.txt");
    const std::string data = dir.contents("data.txt");

    exp::Result out;
    ASSERT_TRUE(store.lookup(digestOf('a'), out));
    exp::ResultStore reopened(dir.path());
    ASSERT_TRUE(reopened.lookup(digestOf('a'), out));
    EXPECT_FALSE(reopened.lookup(digestOf('b'), out));

    EXPECT_EQ(dir.contents("index.txt"), index);
    EXPECT_EQ(dir.contents("data.txt"), data);
}

TEST(ResultStore, OpensAnOlderJournal)
{
    // An older build capped the store with LRU eviction and journaled
    // touch/evict records beside its puts. Replay keeps the last put
    // of each digest and skips the rest.
    ScratchStore dir("test_store_older_journal");
    { exp::ResultStore init(dir.path()); }
    std::string index = dir.contents("index.txt");
    std::string data;
    auto put = [&](char fill, std::uint64_t insts, std::size_t extra = 0) {
        std::string payload = exp::encodeResultTokens(sampleResult(insts));
        index += "put " + digestOf(fill) + " " +
                 std::to_string(data.size()) + " " +
                 std::to_string(payload.size() + extra) + "\n";
        data += payload + "\n";
    };
    put('a', 1);
    put('b', 2);
    index += "touch " + digestOf('a') + "\n";
    index += "evict " + digestOf('b') + "\n";
    put('c', 3);
    put('a', 4); // supersedes the first 'a'
    index += "touch " + digestOf('c') + "\n";
    index += "evict " + digestOf('z') + "\n";
    put('d', 5, 4096); // its span runs past the end of data.txt
    dir.write("index.txt", index);
    dir.write("data.txt", data);

    exp::ResultStore store(dir.path());
    EXPECT_EQ(store.size(), 3u);
    exp::Result out;
    ASSERT_TRUE(store.lookup(digestOf('a'), out));
    EXPECT_EQ(out.run.insts, 4u);
    // Evicted by the older build, served again: the payload is still
    // there, and a content-addressed result cannot have changed.
    ASSERT_TRUE(store.lookup(digestOf('b'), out));
    EXPECT_EQ(out.run.insts, 2u);
    EXPECT_EQ(out.counters, sampleResult(2).counters);
    ASSERT_TRUE(store.lookup(digestOf('c'), out));
    EXPECT_EQ(out.run.insts, 3u);
    EXPECT_FALSE(store.lookup(digestOf('d'), out));
    EXPECT_FALSE(store.lookup(digestOf('z'), out));
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

} // namespace
