/**
 * @file
 * A Point is one fully-specified simulation: workload + complete
 * SimConfig + measurement window. Every point carries its *entire*
 * configuration, and its identity is a SHA-256 digest over the
 * complete serialized SimConfig plus the workload parameters and
 * window (pointKey/pointDigest), so no knob can be silently dropped
 * from a result-store key — the defect that forced the old bench
 * harness to bypass caching for whole ablations.
 */

#ifndef ACP_EXP_POINT_HH
#define ACP_EXP_POINT_HH

#include <cstdint>
#include <functional>
#include <string>

#include "sim/config.hh"
#include "workloads/workloads.hh"

namespace acp::sim
{
class System;
}

namespace acp::exp
{

/** In-place config edit applied to a request's base configuration. */
using ConfigMutator = std::function<void(sim::SimConfig &)>;

/** One fully-keyed experiment: a (workload, config, window) triple. */
struct Point
{
    std::string workload;
    /** Display label for progress/tables (not part of the key). */
    std::string label;
    workloads::WorkloadParams params;
    sim::SimConfig cfg;
    /** Functional fast-forward before the timed window. */
    std::uint64_t warmupInsts = 30000;
    /** Timed measurement window. */
    std::uint64_t measureInsts = 60000;
    /** Cycle cap = measureInsts * cyclesPerInst (deadlock guard). */
    std::uint64_t cyclesPerInst = 400;
    /**
     * Optional hook run after fastForward and before the timed
     * window (tracing, co-simulation). A point with a hook is not
     * cacheable: the hook's effect is invisible to the key.
     */
    std::function<void(sim::System &)> prepare;
    /**
     * Optional hook run after the timed window, while the System is
     * still alive (e.g. write the structured trace to a file). Like
     * prepare, it makes the point uncacheable.
     */
    std::function<void(sim::System &)> finish;

    std::uint64_t maxCycles() const { return measureInsts * cyclesPerInst; }

    /**
     * Cacheable points must be fully described by their digest. Hooks
     * are invisible to the key, and the observability knobs are
     * deliberately excluded from it (they never change results), so a
     * run that wants a trace or interval series must actually run.
     */
    bool
    cacheable() const
    {
        return !prepare && !finish && cfg.statsInterval == 0 &&
               !cfg.profileEnabled && !cfg.hostStats;
    }
};

/**
 * Canonical text key of a point: a version line, the workload
 * identity and window, then the complete serialized SimConfig.
 */
std::string pointKey(const Point &point);

/** Lower-case hex SHA-256 of pointKey() — the store key. */
std::string pointDigest(const Point &point);

} // namespace acp::exp

#endif // ACP_EXP_POINT_HH
