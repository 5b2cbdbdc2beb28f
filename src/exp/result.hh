/**
 * @file
 * What one simulated point produces: the RunResult plus captured
 * statistics, interval series, path profile and host-side provenance.
 * Plain data — the codec in result_codec.hh serializes the cacheable
 * subset for the result store.
 */

#ifndef ACP_EXP_RESULT_HH
#define ACP_EXP_RESULT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/interval.hh"
#include "sim/system.hh"

namespace acp::exp
{

/** Captured StatAverage state (plain data for store round-trips). */
struct AvgStat
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    double mean() const { return count ? sum / double(count) : 0.0; }
    bool operator==(const AvgStat &) const = default;
};

/** Captured StatDistribution state. */
struct DistStat
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    /** Power-of-two buckets (StatDistribution::bucketLow/High). */
    std::vector<std::uint64_t> buckets;

    double mean() const { return count ? double(sum) / double(count) : 0.0; }
    bool operator==(const DistStat &) const = default;
};

/** Everything one simulated point produced. */
struct Result
{
    sim::RunResult run;
    /** Captured integer counters ("l2.misses" -> value). */
    std::map<std::string, std::uint64_t> counters;
    /** Captured averages ("auth.verify_latency" -> state). */
    std::map<std::string, AvgStat> averages;
    /** Captured distributions ("auth.verify_latency_hist" -> state). */
    std::map<std::string, DistStat> distributions;
    /** Interval time series (only when cfg.statsInterval != 0). */
    std::vector<obs::IntervalSample> intervals;
    /** Interval period in cycles (0 = no interval stats). */
    std::uint64_t intervalPeriod = 0;
    /** Path-profiler snapshot (only when cfg.profileEnabled). */
    obs::PathProfile profile;
    /** True when @ref profile holds a live snapshot. */
    bool hasProfile = false;
    /** Served from the persistent store (not re-simulated). */
    bool fromCache = false;
    /** Wall-clock seconds of the simulation, from constructing the
     *  System to capturing its statistics (0 when cached). Building
     *  the programs is not in it: a submission builds them once and
     *  shares them with every point that runs them. */
    double wallSeconds = 0.0;
};

} // namespace acp::exp

#endif // ACP_EXP_RESULT_HH
