/**
 * @file
 * Interval statistics: the core's progress (committed instructions,
 * cycles, IPC) and its stall-cycle breakdown over fixed-length cycle
 * windows. One sampler serves both the --stats-interval time series
 * and the live heartbeat's tick records; only the sink differs.
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
#include <functional>
#include <utility>
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

/** Cuts cumulative totals into per-period samples for one sink. */
class IntervalSampler
{
  public:
    using Sink = std::function<void(const IntervalSample &)>;

    /** Sample every @p period cycles (0 behaves as 1). */
    IntervalSampler(Cycle period, Sink sink)
        : period_(period ? period : 1), sink_(std::move(sink)),
          next_(period_)
    {
    }

    /** Exclusive end of the interval in progress. */
    Cycle nextBoundary() const { return next_; }

    /** Anchor at @p cycle with the totals there: intervals then end
     *  at cycle + k * period. */
    void
    start(Cycle cycle, std::uint64_t committed, const StallArray &stalls)
    {
        last_ = {cycle, committed, stalls};
        next_ = cycle + period_;
    }

    /** The totals now cover every cycle before nextBoundary(): emit
     *  that interval and move to the next one. */
    void
    sample(std::uint64_t committed, const StallArray &stalls)
    {
        emit(next_, committed, stalls);
        next_ += period_;
    }

    /** Emit the partial tail ending at @p cycle, if it is non-empty
     *  (end of a timed window; later boundaries stay where they were). */
    void
    finish(Cycle cycle, std::uint64_t committed, const StallArray &stalls)
    {
        if (cycle > last_.cycle)
            emit(cycle, committed, stalls);
    }

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
        sink_(s);
    }

    Cycle period_;
    Sink sink_;
    Cycle next_;
    Totals last_;
};

/** Human-readable interval table (columns: progress + used stalls). */
void printIntervalTable(const std::vector<IntervalSample> &samples,
                        std::FILE *out);

} // namespace acp::obs

#endif // ACP_OBS_INTERVAL_HH
