#include "mem/bus.hh"

#include <string>

namespace acp::mem
{

BusArbiter::BusArbiter(const sim::SimConfig &cfg)
    : cfg_(cfg), stats_("bus")
{
    stats_.addCounter("grants", &grants_);
    stats_.addCounter("contended_grants", &contendedGrants_);
    stats_.addCounter("beats", &beats_);
    stats_.addAverage("grant_wait", &grantWait_);
}

void
BusArbiter::registerClients(unsigned n)
{
    if (n <= 1 || !clients_.empty())
        return;
    stats_.addCounter("cross_client_contended", &crossClientContended_);
    for (unsigned i = 0; i < n; ++i) {
        auto cs = std::make_unique<ClientStats>();
        const std::string prefix = "cpu" + std::to_string(i) + "_";
        stats_.addCounter(prefix + "grants", &cs->grants);
        stats_.addCounter(prefix + "contended_grants",
                          &cs->contendedGrants);
        stats_.addAverage(prefix + "grant_wait", &cs->grantWait);
        clients_.push_back(std::move(cs));
    }
}

Cycle
BusArbiter::reserve(Cycle earliest, unsigned beats, unsigned client)
{
    ++grants_;
    beats_ += beats;
    Cycle start = earliest > freeAt_ ? earliest : freeAt_;
    if (start > earliest) {
        ++contendedGrants_;
        if (!clients_.empty() && lastOwner_ != client)
            ++crossClientContended_;
    }
    grantWait_.sample(double(start - earliest));
    if (client < clients_.size()) {
        ClientStats &cs = *clients_[client];
        ++cs.grants;
        if (start > earliest)
            ++cs.contendedGrants;
        cs.grantWait.sample(double(start - earliest));
    }
    lastOwner_ = client;
    freeAt_ = start + Cycle(beats) * cfg_.busClockRatio;
    return start;
}

} // namespace acp::mem
