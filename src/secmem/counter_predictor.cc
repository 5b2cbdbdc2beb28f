#include "secmem/counter_predictor.hh"

namespace acp::secmem
{

CounterPredictor::CounterPredictor() : stats_("ctr_pred")
{
    stats_.addCounter("hits", &hits_);
    stats_.addCounter("misses", &misses_);
}

std::uint64_t
CounterPredictor::regionOf(Addr line_addr) const
{
    return line_addr / kCounterPredictRegionBytes;
}

bool
CounterPredictor::predictAndResolve(Addr line_addr,
                                    std::uint64_t true_counter)
{
    std::uint64_t region = regionOf(line_addr);
    auto it = history_.find(region);
    // Cold regions predict the provisioning counter (0) upward: fresh
    // images are all version 0, which [19] notes is the common case.
    std::uint64_t base = (it == history_.end()) ? 0 : it->second;

    // Candidates: [base, base + window). A slightly stale base still
    // hits as long as the line was not written more than window-1
    // times since the region history was trained.
    bool hit = true_counter >= base &&
               true_counter < base + kCounterPredictWindow;
    if (hit)
        ++hits_;
    else
        ++misses_;

    // Either way, the true counter (once fetched) retrains the region.
    history_[region] = true_counter;
    return hit;
}

void
CounterPredictor::onWriteback(Addr line_addr, std::uint64_t new_counter)
{
    history_[regionOf(line_addr)] = new_counter;
}

} // namespace acp::secmem
