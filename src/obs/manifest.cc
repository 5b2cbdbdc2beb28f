#include "obs/manifest.hh"

#include <cstdint>
#include <ctime>

#include <unistd.h>

#include "common/json.hh"
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

void
appendField(std::string &out, const char *key, const std::string &value,
            bool last = false)
{
    out += '"';
    out += key;
    out += "\": \"";
    out += json::escape(value);
    out += last ? "\"" : "\", ";
}

/** The manifest body as one line of "key": value pairs (no braces). */
std::string
bodyJson(const Manifest &m)
{
    std::string out;
    out.reserve(512);
    appendField(out, "schema", m.schema);
    appendField(out, "gitSha", m.gitSha);
    out += m.gitDirty ? "\"gitDirty\": true, " : "\"gitDirty\": false, ";
    appendField(out, "buildType", m.buildType);
    appendField(out, "compiler", m.compiler);
    appendField(out, "cxxFlags", m.cxxFlags);
    appendField(out, "sanitize", m.sanitize);
    appendField(out, "hostname", m.hostname);
    appendField(out, "timestampUtc", m.timestampUtc);
    out += "\"unixTime\": ";
    out += std::to_string(m.unixTime);
    return out;
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
writeManifestJson(std::FILE *out, const Manifest &m, const char *indent)
{
    std::fprintf(out,
                 "{\n%s  \"schema\": \"%s\",\n"
                 "%s  \"gitSha\": \"%s\",\n"
                 "%s  \"gitDirty\": %s,\n"
                 "%s  \"buildType\": \"%s\",\n"
                 "%s  \"compiler\": \"%s\",\n",
                 indent, m.schema.c_str(), indent, m.gitSha.c_str(),
                 indent, m.gitDirty ? "true" : "false", indent,
                 m.buildType.c_str(), indent, m.compiler.c_str());
    // Flags can contain quotes/backslashes; route through the escaper.
    const std::string flags = json::escape(m.cxxFlags);
    const std::string sanitize = json::escape(m.sanitize);
    const std::string host = json::escape(m.hostname);
    const std::string stamp = json::escape(m.timestampUtc);
    std::fprintf(out,
                 "%s  \"cxxFlags\": \"%s\",\n"
                 "%s  \"sanitize\": \"%s\",\n"
                 "%s  \"hostname\": \"%s\",\n"
                 "%s  \"timestampUtc\": \"%s\",\n"
                 "%s  \"unixTime\": %llu\n%s}",
                 indent, flags.c_str(), indent, sanitize.c_str(), indent,
                 host.c_str(), indent, stamp.c_str(), indent,
                 (unsigned long long)m.unixTime, indent);
}

std::string
manifestJsonLine(const Manifest &m)
{
    return "{" + bodyJson(m) + "}";
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
