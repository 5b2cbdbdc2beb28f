#include "exp/result_store.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <system_error>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "exp/result_codec.hh"

namespace acp::exp
{

namespace
{

/** A line is "<digest> <checksum> <payload>": the payload starts
 *  after 64 + 1 + 16 + 1 bytes. */
constexpr std::size_t kDigestLen = 64;
constexpr std::size_t kPayloadAt = kDigestLen + 1 + 16 + 1;

/** The 16-hex FNV-1a (64-bit) checksum of @p payload. */
std::string
checksum(std::string_view payload)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : payload) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx", (unsigned long long)hash);
    return text;
}

} // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    std::ifstream in(path(), std::ios::binary | std::ios::ate);
    std::string text(in ? std::size_t(in.tellg()) : 0, '\0');
    in.seekg(0);
    in.read(text.data(), std::streamsize(text.size()));
    // Only newline-terminated lines count: a writer may be appending
    // the last one right now.
    std::size_t at = 0;
    for (std::size_t end; (end = text.find('\n', at)) != std::string::npos;
         at = end + 1) {
        std::string_view line(text.data() + at, end - at);
        if (line.size() < kPayloadAt || line[kDigestLen] != ' ' ||
            line[kPayloadAt - 1] != ' ')
            continue;
        std::string_view payload = line.substr(kPayloadAt);
        if (line.substr(kDigestLen + 1, 16) == checksum(payload))
            payloads_[std::string(line.substr(0, kDigestLen))] = payload;
    }
}

ResultStore::~ResultStore()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
ResultStore::lookup(const std::string &digest, Result &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = payloads_.find(digest);
    if (it == payloads_.end()) {
        ++stats_.misses;
        return false;
    }
    ++stats_.hits;
    out = Result{};
    decodeResultTokens(it->second, out);
    out.fromCache = true;
    return true;
}

void
ResultStore::put(const std::string &digest, const Result &result)
{
    std::string payload = encodeResultTokens(result);
    const std::string line =
        digest + ' ' + checksum(payload) + ' ' + payload + '\n';

    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0) {
        std::error_code ignored; // then the open below fails
        std::filesystem::create_directories(dir_, ignored);
        fd_ = ::open(path().c_str(),
                     O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0666);
    }
    // One write(2), never retried: a second write could land after
    // another process's line. A short write leaves a torn line that
    // fails its checksum on the next open.
    if (fd_ < 0 ||
        ::write(fd_, line.data(), line.size()) != ssize_t(line.size()))
        return; // unwritable store: nothing to record or count
    ++stats_.stores;
    payloads_[digest] = std::move(payload);
}

ResultStore::Stats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace acp::exp
