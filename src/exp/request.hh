/**
 * @file
 * The one experiment entry point: a Request fully describes a sweep —
 * the cross product workloads × config variants that every paper
 * figure/table is made of — *and* how to execute it (jobs, result
 * store, progress).
 *
 * A Request replaces the three entry surfaces the harness used to
 * have (the Sweep builder, RunnerOptions, and acpsim's private flag
 * plumbing): bench binaries, examples and the acpsim CLI all build
 * one and hand it to exp::submit.
 *
 *   exp::Request req;
 *   req.base(cfg).params(params).window(30000, 60000)
 *      .workloads(workloads::intNames())
 *      .variant("base", [](auto &c) { c.policy = kBaseline; })
 *      .variant("commit", [](auto &c) { c.policy = kAuthThenCommit; });
 *   exp::Submission sub = exp::submit(req);
 *
 * points() orders the cross product workload-major: the point for
 * (workload w, variant v) lands at index w * variantCount() + v.
 *
 * Variants snapshot the base configuration when declared, so set
 * base() before the first variant().
 */

#ifndef ACP_EXP_REQUEST_HH
#define ACP_EXP_REQUEST_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/point.hh"

namespace acp::exp
{

/** One labelled configuration of the sweep's variant axis. */
struct RequestVariant
{
    std::string label;
    sim::SimConfig cfg;
};

struct Request
{
    // ----- sweep axes (all participate in digests) ------------------

    /** Base configuration snapshot taken by each variant(). */
    sim::SimConfig baseCfg;
    workloads::WorkloadParams workloadParams;
    std::uint64_t warmupInsts = 30000;
    std::uint64_t measureInsts = 60000;
    /** Workload names; a '+'-joined name ("mcf+swim") is a per-core
     *  mix — points() widens numCores and fills coreWorkloads. */
    std::vector<std::string> workloadNames;
    /** Labelled config variants (1 implicit base variant if empty). */
    std::vector<RequestVariant> variants;

    // ----- execution policy -----------------------------------------

    /** Worker threads; 0 = ACP_JOBS env, else hardware concurrency. */
    unsigned jobs = 0;
    /** Result-store directory; empty disables the store entirely. */
    std::string store = "acp_store";
    /** Per-point progress lines on stderr. */
    bool progress = true;

    // ----- in-process hooks ------------------------------------------

    /**
     * Last-chance point decoration (trace/cosim hooks, ad-hoc config
     * edits). Runs at the end of points().
     */
    std::function<void(std::vector<Point> &)> decorate;

    // ----- fluent builder (mirrors the old Sweep surface) -----------

    Request &
    base(const sim::SimConfig &cfg)
    {
        baseCfg = cfg;
        return *this;
    }

    Request &
    params(const workloads::WorkloadParams &p)
    {
        workloadParams = p;
        return *this;
    }

    Request &
    window(std::uint64_t warmup, std::uint64_t measure)
    {
        warmupInsts = warmup;
        measureInsts = measure;
        return *this;
    }

    Request &
    workload(std::string name)
    {
        workloadNames.push_back(std::move(name));
        return *this;
    }

    Request &
    workloads(const std::vector<std::string> &names)
    {
        workloadNames.insert(workloadNames.end(), names.begin(),
                             names.end());
        return *this;
    }

    /** Snapshot base + apply @p mutate; set base() first. */
    Request &
    variant(std::string label, const ConfigMutator &mutate)
    {
        RequestVariant v;
        v.label = std::move(label);
        v.cfg = baseCfg;
        if (mutate)
            mutate(v.cfg);
        variants.push_back(std::move(v));
        return *this;
    }

    /** Variants per workload (1 when none was declared). */
    std::size_t
    variantCount() const
    {
        return variants.empty() ? 1 : variants.size();
    }

    /**
     * Materialize the cross product (workload-major), expand
     * '+'-joined per-core workload mixes, then run the decorator.
     */
    std::vector<Point> points() const;
};

} // namespace acp::exp

#endif // ACP_EXP_REQUEST_HH
