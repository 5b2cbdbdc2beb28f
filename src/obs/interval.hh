/**
 * @file
 * Interval statistics: the core's progress (committed instructions,
 * cycles, IPC) and its stall-cycle breakdown over fixed-length cycle
 * windows — the --stats-interval time series.
 *
 * The sampler differences the core's *cumulative* totals into
 * per-interval deltas. The core hands it the totals at each period
 * boundary, so every sample covers the half-open window [kP, (k+1)P)
 * of the core-local clock. It never feeds anything back into the
 * model, so enabling it cannot perturb simulation results.
 */

#ifndef ACP_OBS_INTERVAL_HH
#define ACP_OBS_INTERVAL_HH

#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/types.hh"
#include "obs/stall.hh"

namespace acp::obs
{

/** One interval of the time series. */
struct IntervalSample
{
    /** Cycle at which the interval ends (core-local clock, exclusive). */
    Cycle endCycle = 0;
    /** Interval length in cycles (== period except for the tail). */
    Cycle cycles = 0;
    /** Instructions committed during the interval. */
    std::uint64_t insts = 0;
    /** insts / cycles. */
    double ipc = 0.0;
    /** Per-cause non-committing cycles during the interval. */
    StallArray stalls{};
};

/** Cuts the core's cumulative totals into per-period rows. */
class IntervalSampler
{
  public:
    /** Sample every @p period cycles from cycle 0; 0 samples nothing. */
    explicit IntervalSampler(Cycle period)
        : period_(period), next_(period ? period : kCycleNever)
    {
    }

    /** Exclusive end of the interval in progress (kCycleNever when
     *  the sampler is off). */
    Cycle nextBoundary() const { return next_; }

    /** The totals now cover every cycle before nextBoundary(): record
     *  that interval and move to the next one. */
    void
    sample(std::uint64_t committed, const StallArray &stalls)
    {
        emit(next_, committed, stalls);
        next_ += period_;
    }

    /** Record the partial tail ending at @p cycle, if it is non-empty
     *  (end of a timed window; later boundaries stay where they were). */
    void
    finish(Cycle cycle, std::uint64_t committed, const StallArray &stalls)
    {
        if (period_ != 0 && cycle > last_.cycle)
            emit(cycle, committed, stalls);
    }

    /** Every interval recorded so far, in cycle order. */
    const std::vector<IntervalSample> &rows() const { return rows_; }

  private:
    struct Totals
    {
        Cycle cycle = 0;
        std::uint64_t committed = 0;
        StallArray stalls{};
    };

    void
    emit(Cycle cycle, std::uint64_t committed, const StallArray &stalls)
    {
        IntervalSample s;
        s.endCycle = cycle;
        s.cycles = cycle - last_.cycle;
        s.insts = committed - last_.committed;
        s.ipc = double(s.insts) / double(s.cycles);
        for (unsigned i = 0; i < kNumStallCauses; ++i)
            s.stalls[i] = stalls[i] - last_.stalls[i];
        last_ = {cycle, committed, stalls};
        rows_.push_back(s);
    }

    Cycle period_;
    Cycle next_;
    Totals last_;
    std::vector<IntervalSample> rows_;
};

/** Human-readable interval table (columns: progress + used stalls). */
void printIntervalTable(const std::vector<IntervalSample> &samples,
                        std::FILE *out);

} // namespace acp::obs

#endif // ACP_OBS_INTERVAL_HH
