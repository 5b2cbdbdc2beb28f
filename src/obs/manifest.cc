#include "obs/manifest.hh"

#include <cstdint>
#include <cstdio>
#include <ctime>

#include <unistd.h>

#include "obs/build_info.hh"

namespace acp::obs
{

namespace
{

std::string
hostName()
{
    char buf[256] = {0};
    if (::gethostname(buf, sizeof(buf) - 1) != 0)
        return "unknown";
    return buf[0] ? buf : "unknown";
}

} // namespace

Manifest
manifest()
{
    Manifest m;
    m.schema = "acp-manifest-v1";
    m.gitSha = build_info::kGitSha;
    m.gitDirty = build_info::kGitDirty;
    m.buildType = build_info::kBuildType;
    m.compiler = build_info::kCompiler;
    m.cxxFlags = build_info::kCxxFlags;
    m.sanitize = build_info::kSanitize;
    m.hostname = hostName();

    std::time_t now = std::time(nullptr);
    m.unixTime = std::uint64_t(now);
    std::tm utc{};
    gmtime_r(&now, &utc);
    char stamp[32];
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
    m.timestampUtc = stamp;
    return m;
}

void
writeManifest(json::Writer &w, const Manifest &m, json::Layout layout)
{
    w.beginObject(layout);
    w.key("schema").value(m.schema);
    w.key("gitSha").value(m.gitSha);
    w.key("gitDirty").value(m.gitDirty);
    w.key("buildType").value(m.buildType);
    w.key("compiler").value(m.compiler);
    w.key("cxxFlags").value(m.cxxFlags);
    w.key("sanitize").value(m.sanitize);
    w.key("hostname").value(m.hostname);
    w.key("timestampUtc").value(m.timestampUtc);
    w.key("unixTime").value(m.unixTime);
    w.endObject();
}

std::string
manifestJsonLine(const Manifest &m)
{
    json::Writer w;
    writeManifest(w, m, json::kOneLine);
    return w.str();
}

std::string
manifestText(const Manifest &m)
{
    std::string out;
    out.reserve(512);
    auto line = [&out](const char *key, const std::string &value) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%-12s", key);
        out += buf;
        out += value;
        out += '\n';
    };
    line("git", m.gitSha + (m.gitDirty ? " (dirty)" : ""));
    line("build", m.buildType);
    line("compiler", m.compiler);
    if (!m.cxxFlags.empty())
        line("cxxflags", m.cxxFlags);
    line("sanitize", m.sanitize.empty() ? "none" : m.sanitize);
    line("host", m.hostname);
    line("time", m.timestampUtc);
    line("schema", m.schema);
    return out;
}

} // namespace acp::obs
