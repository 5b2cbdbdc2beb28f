/**
 * @file
 * Tests for the content-addressed result store (exp::ResultStore):
 * payload round-trip through the codec, the store file across reopen,
 * opens and hits that write nothing, torn and foreign lines that only
 * ever miss, and two processes appending to one store.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "exp/result_codec.hh"
#include "exp/result_store.hh"

using namespace acp;

namespace
{

/** The whole of @p path; empty when it cannot be read. */
std::string
readText(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
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

/** Replace @p path with @p text. */
void
writeText(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

/** RAII scratch store directory. */
class ScratchStore
{
  public:
    explicit ScratchStore(const char *name) : path_(name) { clear(); }
    ~ScratchStore() { clear(); }
    const std::string &path() const { return path_; }
    std::string file() const { return path_ + "/results-v2.txt"; }

  private:
    void clear() { std::filesystem::remove_all(path_); }
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
    exp::Result out;
    {
        exp::ResultStore store(dir.path());
        store.put(digestOf('a'), sampleResult(1000));
        store.put(digestOf('b'), sampleResult(2000));
        store.put(digestOf('b'), sampleResult(3000)); // supersedes
        ASSERT_TRUE(store.lookup(digestOf('b'), out));
        EXPECT_EQ(out.run.insts, 3000u);
    }
    exp::ResultStore reopened(dir.path());
    ASSERT_TRUE(reopened.lookup(digestOf('a'), out));
    EXPECT_TRUE(out.fromCache);
    EXPECT_EQ(out.run.insts, 1000u);
    EXPECT_EQ(out.counters, sampleResult(1000).counters);
    EXPECT_EQ(exp::encodeResultTokens(out),
              exp::encodeResultTokens(sampleResult(1000)));
    ASSERT_TRUE(reopened.lookup(digestOf('b'), out));
    EXPECT_EQ(out.run.insts, 3000u);
    EXPECT_EQ(reopened.stats().hits, 2u);
    EXPECT_FALSE(reopened.lookup(digestOf('z'), out));
    EXPECT_EQ(reopened.stats().misses, 1u);
}

TEST(ResultStore, OpeningAndHittingWriteNothing)
{
    // A missing store reads as empty: opening it and missing in it
    // create nothing.
    ScratchStore root("test_store_writes_nothing");
    exp::Result out;
    {
        exp::ResultStore store(root.path());
        EXPECT_FALSE(store.lookup(digestOf('a'), out));
    }
    EXPECT_FALSE(std::filesystem::exists(root.path()));

    // The first put creates the directory, its parents and the one
    // file; hits, misses and reopening leave that file as it was.
    const std::string dir = root.path() + "/nested/acp_store";
    exp::ResultStore store(dir);
    store.put(digestOf('a'), sampleResult(1));
    const std::string text = readText(dir + "/results-v2.txt");
    ASSERT_FALSE(text.empty());
    ASSERT_TRUE(store.lookup(digestOf('a'), out));
    exp::ResultStore reopened(dir);
    ASSERT_TRUE(reopened.lookup(digestOf('a'), out));
    EXPECT_FALSE(reopened.lookup(digestOf('b'), out));
    EXPECT_EQ(readText(dir + "/results-v2.txt"), text);

    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    EXPECT_EQ(names, std::vector<std::string>{"results-v2.txt"});
}

TEST(ResultStore, CountsOnlyPutsThatLanded)
{
    // A regular file where the store directory belongs: the put cannot
    // create the directory or open the file, and stores nothing.
    ScratchStore blocked("test_store_blocked");
    writeText(blocked.path(), "not a directory\n");
    exp::ResultStore store(blocked.path());
    store.put(digestOf('a'), sampleResult(1));
    EXPECT_EQ(store.stats().stores, 0u);
    exp::Result out;
    EXPECT_FALSE(store.lookup(digestOf('a'), out));

    ScratchStore root("test_store_lands");
    exp::ResultStore writable(root.path());
    writable.put(digestOf('a'), sampleResult(1));
    EXPECT_EQ(writable.stats().stores, 1u);
}

TEST(ResultStore, TornAndForeignLinesAreMisses)
{
    ScratchStore dir("test_store_torn");
    {
        exp::ResultStore store(dir.path());
        for (char fill : {'a', 'b', 'c', 'd', 'e', 'f'})
            store.put(digestOf(fill), sampleResult(std::uint64_t(fill)));
    }
    const std::string whole = readText(dir.file());
    auto lineOf = [&](char fill) {
        std::size_t at = whole.find(digestOf(fill));
        return whole.substr(at, whole.find('\n', at) + 1 - at);
    };

    std::string text = lineOf('a');
    // A writer killed mid-payload, then another's whole line: the two
    // run together into one line whose checksum fails.
    text += lineOf('b').substr(0, lineOf('b').size() / 2);
    text += lineOf('c');
    // A payload changed after its checksum was taken.
    std::string changed = lineOf('d');
    changed.replace(changed.find("insts=100"), 9, "insts=900");
    text += changed;
    // Foreign lines: an older build's index record, a blank line.
    text += "put " + digestOf('e') + " 0 100\n\n";
    text += lineOf('f');
    // A last line whose newline has not landed yet.
    std::string unterminated = lineOf('e');
    unterminated.pop_back();
    text += unterminated;
    writeText(dir.file(), text);

    // An older build's index.txt/data.txt pair is never read.
    const std::string old_index =
        "acp-store-v1\nput " + digestOf('g') + " 0 " +
        std::to_string(exp::encodeResultTokens(sampleResult(7)).size()) +
        "\n";
    const std::string old_data =
        exp::encodeResultTokens(sampleResult(7)) + "\n";
    writeText(dir.path() + "/index.txt", old_index);
    writeText(dir.path() + "/data.txt", old_data);

    exp::ResultStore store(dir.path());
    exp::Result out;
    ASSERT_TRUE(store.lookup(digestOf('a'), out));
    EXPECT_EQ(out.run.insts, std::uint64_t('a'));
    ASSERT_TRUE(store.lookup(digestOf('f'), out));
    EXPECT_EQ(out.run.insts, std::uint64_t('f'));
    for (char fill : {'b', 'c', 'd', 'e', 'g'})
        EXPECT_FALSE(store.lookup(digestOf(fill), out)) << fill;
    EXPECT_EQ(readText(dir.file()), text);
    EXPECT_EQ(readText(dir.path() + "/index.txt"), old_index);
    EXPECT_EQ(readText(dir.path() + "/data.txt"), old_data);
}

/** 64 hex characters like a real pointDigest: distinct for every
 *  (writer, i); writer kShared names the digests both writers put. */
constexpr int kShared = 99;
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
    constexpr int kSharedCount = 500;
    auto ownInsts = [](int w, int i) {
        return std::uint64_t(w * kPerWriter + i);
    };
    auto sharedInsts = [](int w, int s) {
        return std::uint64_t(1000000 + w * kSharedCount + s);
    };

    pid_t pids[kWriters];
    for (int w = 0; w < kWriters; ++w) {
        pids[w] = ::fork();
        ASSERT_GE(pids[w], 0);
        if (pids[w] == 0) {
            exp::ResultStore store(dir.path());
            for (int i = 0; i < kPerWriter; ++i) {
                store.put(writerDigest(w, i), sampleResult(ownInsts(w, i)));
                if (i % 6 == 5)
                    store.put(writerDigest(kShared, i / 6),
                              sampleResult(sharedInsts(w, i / 6)));
            }
            ::_exit(0);
        }
    }
    for (pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    // Every append landed whole: one line per put, each decoding to
    // its own result.
    const std::string text = readText(dir.file());
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
              kWriters * (kPerWriter + kSharedCount));
    exp::ResultStore reopened(dir.path());
    int wrong = 0;
    for (int w = 0; w < kWriters; ++w) {
        for (int i = 0; i < kPerWriter; ++i) {
            exp::Result out;
            if (!reopened.lookup(writerDigest(w, i), out) ||
                exp::encodeResultTokens(out) !=
                    exp::encodeResultTokens(sampleResult(ownInsts(w, i))))
                ++wrong;
        }
    }
    EXPECT_EQ(wrong, 0) << "entries lost or decoded to another result";

    // A digest both writers put is served from its last line.
    std::map<std::string, std::string> last_payload;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);)
        last_payload[line.substr(0, line.find(' '))] =
            line.substr(line.find(' ', line.find(' ') + 1) + 1);
    int not_last = 0;
    for (int s = 0; s < kSharedCount; ++s) {
        const std::string &last = last_payload[writerDigest(kShared, s)];
        exp::Result out;
        if (!reopened.lookup(writerDigest(kShared, s), out) ||
            exp::encodeResultTokens(out) != last ||
            (out.run.insts != sharedInsts(0, s) &&
             out.run.insts != sharedInsts(1, s)))
            ++not_last;
    }
    EXPECT_EQ(not_last, 0) << "a shared digest not served from its last put";
}

} // namespace
