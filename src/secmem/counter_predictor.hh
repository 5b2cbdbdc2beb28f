/**
 * @file
 * Counter predictor + pad precomputation, after Shi et al. [19] ("High
 * Efficiency Counter Mode Security Architecture via Prediction and
 * Precomputation") — the paper's reference encryption implementation
 * (Section 5.2.2).
 *
 * Counter-mode decryption needs the per-line write counter before the
 * pad can be generated. On a counter-cache miss a naive design waits
 * for the counter fetch, putting it on the critical path. [19] exploits
 * the spatial/temporal locality of counters: lines in the same region
 * were usually written about the same number of times, so the engine
 * *predicts* a small window of candidate counters seeded by the
 * region's recent history and precomputes a pad for each candidate in
 * parallel with the data fetch. If the true counter (which arrives
 * later, off the critical path) falls inside the window, the correct
 * pad is already waiting and decryption costs MAX(fetch, decrypt) —
 * exactly the Table 1 assumption. The line MAC still verifies the true
 * counter, so a wrong speculative pad can never go undetected.
 */

#ifndef ACP_SECMEM_COUNTER_PREDICTOR_HH
#define ACP_SECMEM_COUNTER_PREDICTOR_HH

#include <cstdint>
#include <unordered_map>

#include "common/stats.hh"
#include "common/types.hh"

namespace acp::secmem
{

/** Prediction granularity: one history entry per region ([19] uses
 *  page-sized groups). */
constexpr std::uint64_t kCounterPredictRegionBytes = 4096;
/** Candidate counters precomputed in parallel (bounded by spare AES
 *  pipeline slots). */
constexpr unsigned kCounterPredictWindow = 4;

/** Per-region counter-history predictor. */
class CounterPredictor
{
  public:
    CounterPredictor();

    /**
     * Predict at fetch time and (on the true counter's arrival)
     * resolve. The caller passes the functional truth — timing-wise
     * the true counter arrives later; the return value says whether
     * the precomputed window covered it.
     */
    bool predictAndResolve(Addr line_addr, std::uint64_t true_counter);

    /** Train the region history on a writeback (counter bump). */
    void onWriteback(Addr line_addr, std::uint64_t new_counter);

    double
    hitRate() const
    {
        std::uint64_t total = hits_.value() + misses_.value();
        return total ? double(hits_.value()) / double(total) : 0.0;
    }

    StatGroup &stats() { return stats_; }

  private:
    std::uint64_t regionOf(Addr line_addr) const;

    /** Region -> recently observed base counter. */
    std::unordered_map<std::uint64_t, std::uint64_t> history_;

    StatGroup stats_;
    StatCounter hits_;
    StatCounter misses_;
};

} // namespace acp::secmem

#endif // ACP_SECMEM_COUNTER_PREDICTOR_HH
