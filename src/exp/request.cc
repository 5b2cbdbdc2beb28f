#include "exp/request.hh"

#include "common/parse.hh"

namespace acp::exp
{

std::vector<Point>
Request::points() const
{
    std::vector<Point> out;
    out.reserve(workloadNames.size() * variantCount());
    auto make = [&](const std::string &name, const std::string &label,
                    const sim::SimConfig &cfg) {
        Point p;
        p.workload = name;
        p.label = label;
        p.params = workloadParams;
        p.cfg = cfg;
        p.warmupInsts = warmupInsts;
        p.measureInsts = measureInsts;
        return p;
    };
    for (const std::string &name : workloadNames) {
        if (variants.empty()) {
            out.push_back(make(name, name, baseCfg));
            continue;
        }
        for (const RequestVariant &v : variants)
            out.push_back(make(name, v.label, v.cfg));
    }

    // Per-core workload mixes ("mcf+swim"): widen numCores to cover
    // the mix and give every core an explicit workload name (cycling
    // through the mix) so the '+' string itself is never looked up in
    // the workload catalog.
    for (Point &p : out) {
        std::vector<std::string> wl_mix = splitOn(p.workload, '+');
        if (wl_mix.size() <= 1)
            continue;
        if (p.cfg.numCores < wl_mix.size())
            p.cfg.numCores = unsigned(wl_mix.size());
        p.cfg.coreWorkloads = wl_mix;
        while (p.cfg.coreWorkloads.size() < p.cfg.numCores)
            p.cfg.coreWorkloads.push_back(
                wl_mix[p.cfg.coreWorkloads.size() % wl_mix.size()]);
    }

    if (decorate)
        decorate(out);
    return out;
}

} // namespace acp::exp
