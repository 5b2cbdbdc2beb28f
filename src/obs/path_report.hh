/**
 * @file
 * Renderers for PathProfile snapshots: an aligned text report for the
 * terminal (acpsim --profile) and a JSON object for the sweep JSON of
 * exp::writeJson. Both render only the plain PathProfile data, so
 * cached/merged profiles print identically to live ones.
 */

#ifndef ACP_OBS_PATH_REPORT_HH
#define ACP_OBS_PATH_REPORT_HH

#include <cstdio>

#include "common/json.hh"
#include "obs/path_profiler.hh"

namespace acp::obs
{

/** Append the human-readable profile report to @p out. */
void writePathProfileText(std::FILE *out, const PathProfile &profile);

/** Emit the profile as one JSON object. */
void writePathProfile(json::Writer &w, const PathProfile &profile);

} // namespace acp::obs

#endif // ACP_OBS_PATH_REPORT_HH
