#include "exp/result_store.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "exp/result_codec.hh"
#include "obs/manifest.hh"

namespace acp::exp
{

namespace
{

/** Write @p text as the complete new contents of @p path. */
bool
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return true;
}

/** write(2) all of @p text to @p fd; false on error. */
bool
writeAll(int fd, const std::string &text)
{
    std::size_t done = 0;
    while (done < text.size()) {
        ssize_t n = ::write(fd, text.data() + done, text.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        done += std::size_t(n);
    }
    return true;
}

/** Fresh index header: version line + provenance manifest comment. */
std::string
indexHeaderText()
{
    return std::string(ResultStore::kIndexHeader) + "\n# " +
           obs::manifestJsonLine(obs::manifest()) + "\n";
}

/**
 * flock(2) on index.txt, held until destruction (closing the
 * descriptor releases it). The descriptor is opened for appending, so
 * journal records are written through it. Compaction replaces
 * index.txt by rename, and a lock on a file that was renamed away
 * guards nothing: after locking, the descriptor is checked against the
 * path and the lock is retaken on the current file. fd() is -1 when
 * the index cannot be opened for writing; the store then only reads.
 */
class IndexLock
{
  public:
    IndexLock(const std::string &path, int op)
    {
        for (;;) {
            fd_ = ::open(path.c_str(),
                         O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0666);
            if (fd_ < 0)
                return;
            int rc;
            while ((rc = ::flock(fd_, op)) != 0 && errno == EINTR) {
            }
            if (rc != 0)
                return; // no flock on this filesystem: run unlocked
            struct stat held, named;
            if (::fstat(fd_, &held) == 0 &&
                ::stat(path.c_str(), &named) == 0 &&
                held.st_dev == named.st_dev && held.st_ino == named.st_ino)
                return;
            ::close(fd_);
        }
    }

    ~IndexLock()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    IndexLock(const IndexLock &) = delete;
    IndexLock &operator=(const IndexLock &) = delete;

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

} // namespace

ResultStore::ResultStore(std::string dir, std::size_t max_entries)
    : dir_(std::move(dir)), maxEntries_(max_entries)
{
    if (maxEntries_ == 0)
        if (const char *env = std::getenv("ACP_CACHE_MAX_ENTRIES"))
            maxEntries_ = std::strtoull(env, nullptr, 10);
    ::mkdir(dir_.c_str(), 0777); // EEXIST is the common case

    std::lock_guard<std::mutex> lock(mutex_);
    {
        IndexLock shared(indexPath(), LOCK_SH);
        if (loadIndexLocked() &&
            (maxEntries_ == 0 || entries_.size() <= maxEntries_) &&
            !compactionDueLocked())
            return;
    }
    // Initialising, evicting and compacting write the store. Replay
    // again under the exclusive lock: records other processes added
    // since the shared read must survive.
    IndexLock index(indexPath(), LOCK_EX);
    if (!loadIndexLocked()) {
        // No (or stale/foreign) index: start the store fresh.
        writeFile(indexPath(), indexHeaderText());
        writeFile(dataPath(), "");
    }
    // A cap that shrank since the journal was written applies now.
    evictLocked(index.fd());
    if (compactionDueLocked())
        compactLocked();
}

bool
ResultStore::loadIndexLocked()
{
    entries_.clear();
    lru_.clear();
    deadRecords_ = 0;
    std::FILE *f = std::fopen(indexPath().c_str(), "r");
    if (!f)
        return false;
    char line[256];
    if (!std::fgets(line, sizeof(line), f)) {
        std::fclose(f);
        return false; // empty file: rebuild
    }
    std::string header(line);
    while (!header.empty() &&
           (header.back() == '\n' || header.back() == '\r'))
        header.pop_back();
    if (header != kIndexHeader) {
        std::fclose(f);
        return false; // foreign/stale index: rebuild
    }

    // Replay the journal: live set + LRU order (front = most recent).
    struct Span
    {
        std::uint64_t offset = 0;
        std::uint64_t len = 0;
        std::list<std::string>::iterator lruIt;
    };
    std::unordered_map<std::string, Span> spans;
    while (std::fgets(line, sizeof(line), f)) {
        if (line[0] == '#')
            continue;
        char op[8], digest[128];
        unsigned long long offset = 0, len = 0;
        int n = std::sscanf(line, "%7s %127s %llu %llu", op, digest,
                            &offset, &len);
        if (n < 2)
            continue;
        std::string key(digest);
        auto it = spans.find(key);
        if (std::string(op) == "put" && n == 4) {
            if (it != spans.end()) {
                lru_.erase(it->second.lruIt);
                spans.erase(it);
                ++deadRecords_; // superseded put
            }
            lru_.push_front(key);
            spans[key] = Span{offset, len, lru_.begin()};
        } else if (std::string(op) == "touch") {
            if (it != spans.end())
                lru_.splice(lru_.begin(), lru_, it->second.lruIt);
            else
                ++deadRecords_;
        } else if (std::string(op) == "evict") {
            if (it != spans.end()) {
                lru_.erase(it->second.lruIt);
                spans.erase(it);
                ++deadRecords_; // the killed put
            }
            ++deadRecords_; // the evict record itself
        }
    }
    std::fclose(f);

    // Resolve payloads. A span that cannot be read (truncated data
    // file, crashed writer) just drops its entry: the store serves
    // only what it can prove it has.
    std::FILE *data = std::fopen(dataPath().c_str(), "r");
    for (auto it = lru_.begin(); it != lru_.end();) {
        const Span &span = spans[*it];
        std::string payload(span.len, '\0');
        bool ok = data &&
                  std::fseek(data, long(span.offset), SEEK_SET) == 0 &&
                  std::fread(payload.data(), 1, span.len, data) ==
                      span.len;
        if (!ok) {
            ++deadRecords_;
            it = lru_.erase(it);
            continue;
        }
        Entry entry;
        entry.result.fromCache = true;
        decodeResultTokens(payload, entry.result);
        entry.lruIt = it;
        entries_.emplace(*it, std::move(entry));
        ++it;
    }
    if (data)
        std::fclose(data);
    return true;
}

bool
ResultStore::lookup(const std::string &digest, Result &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(digest);
    if (it == entries_.end()) {
        ++stats_.misses;
        return false;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lruIt);
    {
        IndexLock index(indexPath(), LOCK_EX);
        appendIndexLocked(index.fd(), "touch " + digest);
    }
    out = it->second.result;
    out.fromCache = true;
    return true;
}

void
ResultStore::put(const std::string &digest, const Result &result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stores;
    IndexLock index(indexPath(), LOCK_EX);
    insertLocked(index.fd(), digest, result);
    evictLocked(index.fd());
}

void
ResultStore::insertLocked(int index_fd, const std::string &digest,
                          const Result &result)
{
    std::string payload = encodeResultTokens(result);
    std::uint64_t offset = 0;
    if (index_fd < 0 || !appendDataLocked(payload, offset))
        return; // unwritable store: nothing to record
    char span[64];
    std::snprintf(span, sizeof(span), " %llu %zu",
                  (unsigned long long)offset, payload.size());
    appendIndexLocked(index_fd, "put " + digest + span);

    auto it = entries_.find(digest);
    if (it != entries_.end()) {
        ++deadRecords_; // superseded put
        it->second.result = result;
        it->second.result.fromCache = true;
        lru_.splice(lru_.begin(), lru_, it->second.lruIt);
        return;
    }
    lru_.push_front(digest);
    Entry entry;
    entry.result = result;
    entry.result.fromCache = true;
    entry.lruIt = lru_.begin();
    entries_.emplace(digest, std::move(entry));
}

void
ResultStore::evictLocked(int index_fd)
{
    if (maxEntries_ == 0)
        return;
    while (entries_.size() > maxEntries_ && !lru_.empty()) {
        std::string victim = lru_.back();
        lru_.pop_back();
        entries_.erase(victim);
        appendIndexLocked(index_fd, "evict " + victim);
        deadRecords_ += 2; // the evict record + the put it killed
        ++stats_.evictions;
    }
}

void
ResultStore::compactLocked()
{
    // Runs under the exclusive lock, right after a replay under that
    // same lock, so the live set holds every process's entries.
    // Rewrite both files from it, least-recent first so a replay
    // (every put lands at most-recent) reconstructs the exact LRU
    // order. Temp-file + rename keeps a crash from eating the store;
    // renaming index.txt last makes waiting processes retake their
    // lock on the new index only once both files are in place.
    std::string data_text;
    std::string index_text = indexHeaderText();
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        std::string payload =
            encodeResultTokens(entries_[*it].result);
        char span[64];
        std::snprintf(span, sizeof(span), " %llu %zu\n",
                      (unsigned long long)data_text.size(),
                      payload.size());
        index_text += "put " + *it + span;
        data_text += payload + "\n";
    }
    std::string data_tmp = dataPath() + ".tmp";
    std::string index_tmp = indexPath() + ".tmp";
    if (!writeFile(data_tmp, data_text) ||
        !writeFile(index_tmp, index_text))
        return;
    if (std::rename(data_tmp.c_str(), dataPath().c_str()) != 0)
        return;
    if (std::rename(index_tmp.c_str(), indexPath().c_str()) != 0)
        return;
    deadRecords_ = 0;
}

bool
ResultStore::appendIndexLocked(int index_fd, const std::string &line)
{
    return index_fd >= 0 && writeAll(index_fd, line + "\n");
}

bool
ResultStore::appendDataLocked(const std::string &payload,
                              std::uint64_t &offset)
{
    int fd = ::open(dataPath().c_str(),
                    O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0666);
    if (fd < 0)
        return false;
    // Every appender holds the exclusive index lock, so the current
    // end of the file is exactly where this write lands.
    off_t at = ::lseek(fd, 0, SEEK_END);
    bool ok = at >= 0 && writeAll(fd, payload + "\n");
    ::close(fd);
    offset = std::uint64_t(at);
    return ok;
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

ResultStore::Stats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace acp::exp
