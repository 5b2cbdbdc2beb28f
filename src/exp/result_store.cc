#include "exp/result_store.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
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
 * journal records are written through it. A lock on a file that was
 * replaced since it was opened guards nothing (an older build compacts
 * the store by renaming a new index over index.txt): after locking,
 * the descriptor is checked against the path and the lock is retaken
 * on the current file. fd() is -1 when the index cannot be opened for
 * writing; the store then only reads.
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

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    ::mkdir(dir_.c_str(), 0777); // EEXIST is the common case

    std::lock_guard<std::mutex> lock(mutex_);
    {
        IndexLock shared(indexPath(), LOCK_SH);
        if (loadIndexLocked())
            return;
    }
    // Initialising writes the store. Replay again under the exclusive
    // lock: another process may have initialised it since the shared
    // read, and its records must survive.
    IndexLock index(indexPath(), LOCK_EX);
    if (!loadIndexLocked()) {
        // No (or stale/foreign) index: start the store fresh.
        writeFile(indexPath(), indexHeaderText());
        writeFile(dataPath(), "");
    }
}

bool
ResultStore::loadIndexLocked()
{
    entries_.clear();
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

    // Replay the journal: the last put of each digest wins. Comment
    // lines and an older build's touch/evict records carry no span.
    struct Span
    {
        std::uint64_t offset = 0;
        std::uint64_t len = 0;
    };
    std::unordered_map<std::string, Span> spans;
    while (std::fgets(line, sizeof(line), f)) {
        char op[8], digest[128];
        unsigned long long offset = 0, len = 0;
        if (std::sscanf(line, "%7s %127s %llu %llu", op, digest, &offset,
                        &len) == 4 &&
            std::strcmp(op, "put") == 0)
            spans[digest] = Span{offset, len};
    }
    std::fclose(f);

    // Resolve payloads. A span that cannot be read (truncated data
    // file, crashed writer) just drops its entry: the store serves
    // only what it can prove it has.
    std::FILE *data = std::fopen(dataPath().c_str(), "r");
    for (const auto &[digest, span] : spans) {
        std::string payload(span.len, '\0');
        bool ok = data &&
                  std::fseek(data, long(span.offset), SEEK_SET) == 0 &&
                  std::fread(payload.data(), 1, span.len, data) ==
                      span.len;
        if (!ok)
            continue;
        Result result;
        decodeResultTokens(payload, result);
        result.fromCache = true;
        entries_.emplace(digest, std::move(result));
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
    out = it->second;
    out.fromCache = true;
    return true;
}

void
ResultStore::put(const std::string &digest, const Result &result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stores;
    std::string payload = encodeResultTokens(result);
    {
        IndexLock index(indexPath(), LOCK_EX);
        std::uint64_t offset = 0;
        if (index.fd() < 0 || !appendDataLocked(payload, offset))
            return; // unwritable store: nothing to record
        char span[64];
        std::snprintf(span, sizeof(span), " %llu %zu\n",
                      (unsigned long long)offset, payload.size());
        writeAll(index.fd(), "put " + digest + span);
    }
    Result &entry = entries_[digest];
    entry = result;
    entry.fromCache = true;
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
