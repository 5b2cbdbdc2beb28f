/**
 * @file
 * Run provenance manifests: the self-describing block stamped into
 * every machine-readable artifact the harness produces (acpsim
 * --json sweeps, BENCH_*.json recordings, perfbench result lines) so
 * a result can always be traced back to the exact binary, tree state
 * and host that produced it.
 *
 * A Manifest is split into two halves:
 *  - build identity (git SHA + dirty flag, build type, compiler and
 *    flags, sanitizer status) — injected by CMake at configure time
 *    (src/obs/build_info.hh.in) and identical for every run of one
 *    binary;
 *  - run identity (hostname, UTC timestamp) — sampled when
 *    manifest() is called.
 *
 * Determinism contract (tests/test_telemetry.cc): two manifests from
 * the same binary are identical in every field except the
 * timestamps. Manifests are provenance, not results — they are never
 * part of a config digest or a cache key, and comparison tools
 * (tools/bench_diff.py, the CI multi-core determinism smoke) ignore
 * them.
 */

#ifndef ACP_OBS_MANIFEST_HH
#define ACP_OBS_MANIFEST_HH

#include <cstdint>
#include <string>

#include "common/json.hh"

namespace acp::obs
{

/** The provenance block. Schema: "acp-manifest-v1". */
struct Manifest
{
    /** Manifest schema identifier (bumped when fields change). */
    std::string schema;
    /** Full git commit SHA at configure time ("unknown" outside git). */
    std::string gitSha;
    /** Tree had uncommitted changes when configured. */
    bool gitDirty = false;
    /** CMAKE_BUILD_TYPE (e.g. "RelWithDebInfo"). */
    std::string buildType;
    /** Compiler id + version (e.g. "GNU 13.2.0"). */
    std::string compiler;
    /** CMAKE_CXX_FLAGS as configured (often empty). */
    std::string cxxFlags;
    /** Comma-separated sanitizer list; empty = uninstrumented. */
    std::string sanitize;
    /** Host that produced the artifact. */
    std::string hostname;
    /** Capture time, ISO-8601 UTC ("2026-08-08T12:34:56Z"). */
    std::string timestampUtc;
    /** Capture time, seconds since the epoch. */
    std::uint64_t unixTime = 0;
};

/** Capture a manifest for this binary, on this host, now. */
Manifest manifest();

/** Emit @p m as one JSON object, keys in a fixed order. */
void writeManifest(json::Writer &w, const Manifest &m,
                   json::Layout layout = json::kIndented);

/** writeManifest on one line (no newlines), for line-oriented
 *  records. */
std::string manifestJsonLine(const Manifest &m);

/** Human-readable block for `acpsim --version`. */
std::string manifestText(const Manifest &m);

} // namespace acp::obs

#endif // ACP_OBS_MANIFEST_HH
