#include "mem/bus.hh"

#include <string>

namespace acp::mem
{

BusArbiter::BusArbiter(const sim::SimConfig &cfg)
    : cfg_(cfg), stats_("bus"), clients_(cfg.numCores)
{
    stats_.addCounter("grants", &grants_);
    stats_.addCounter("contended_grants", &contendedGrants_);
    stats_.addCounter("beats", &beats_);
    stats_.addAverage("grant_wait", &grantWait_);
    if (clients_.size() < 2)
        return;
    stats_.addCounter("cross_client_contended", &crossClientContended_);
    for (unsigned i = 0; i < clients_.size(); ++i) {
        ClientStats &cs = clients_[i];
        const std::string prefix = "cpu" + std::to_string(i) + "_";
        stats_.addCounter(prefix + "grants", &cs.grants);
        stats_.addCounter(prefix + "contended_grants", &cs.contendedGrants);
        stats_.addAverage(prefix + "grant_wait", &cs.grantWait);
    }
}

Cycle
BusArbiter::reserve(Cycle earliest, unsigned beats, unsigned client)
{
    ++grants_;
    beats_ += beats;
    Cycle start = earliest > freeAt_ ? earliest : freeAt_;
    ClientStats &cs = clients_[client];
    ++cs.grants;
    if (start > earliest) {
        ++contendedGrants_;
        ++cs.contendedGrants;
        if (lastOwner_ != client)
            ++crossClientContended_;
    }
    grantWait_.sample(double(start - earliest));
    cs.grantWait.sample(double(start - earliest));
    lastOwner_ = client;
    freeAt_ = start + Cycle(beats) * cfg_.busClockRatio;
    return start;
}

} // namespace acp::mem
