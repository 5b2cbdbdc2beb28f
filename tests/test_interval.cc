/**
 * @file
 * Interval sampler tests. On mcf under authen-then-commit and
 * authen-then-issue, at P = 1 and P = 2000, with one and two cores,
 * the --stats-interval series of every core satisfies:
 *   - every row but the tail covers [kP, (k+1)P): it ends at a
 *     multiple of P and spans P cycles;
 *   - each row obeys the stall partition: its commit-active cycles
 *     (cycles minus stalls) number between ceil(insts / commitWidth)
 *     and insts;
 *   - the rows sum to the core's cycles, committed and stall counters;
 *   - every captured statistic is identical with the sampler on and
 *     off.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "exp/submit.hh"
#include "obs/interval.hh"
#include "printers.hh"
#include "sim/system.hh"

using namespace acp;
using core::AuthPolicy;

namespace
{

exp::Point
mcfPoint(AuthPolicy policy, unsigned cores)
{
    exp::Point point;
    point.workload = "mcf";
    point.cfg.memoryBytes = 16ULL << 20;
    point.cfg.protectedBytes = point.cfg.memoryBytes;
    point.cfg.policy = policy;
    point.cfg.numCores = cores;
    point.params.workingSetBytes = 128 * 1024;
    point.warmupInsts = 2000;
    point.measureInsts = 3000;
    return point;
}

} // namespace

TEST(IntervalSampler, RowsAreHalfOpenAndTheGridSurvivesATail)
{
    obs::IntervalSampler sampler(4);
    obs::StallArray stalls{};
    EXPECT_EQ(sampler.nextBoundary(), 4u);

    // Totals over [0, 4): 3 commits, one stalled cycle.
    stalls[0] = 1;
    sampler.sample(3, stalls);
    // A window ends at 6: the tail [4, 6) is emitted, the grid stays.
    stalls[0] = 2;
    sampler.finish(6, 5, stalls);
    EXPECT_EQ(sampler.nextBoundary(), 8u);
    // The next window's first row is the rest of the period, [6, 8).
    sampler.sample(9, stalls);
    // A tail that is already on the boundary adds nothing.
    sampler.finish(8, 9, stalls);

    const std::vector<obs::IntervalSample> &rows = sampler.rows();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].endCycle, 4u);
    EXPECT_EQ(rows[0].cycles, 4u);
    EXPECT_EQ(rows[0].insts, 3u);
    EXPECT_EQ(rows[0].stalls[0], 1u);
    EXPECT_DOUBLE_EQ(rows[0].ipc, 0.75);
    EXPECT_EQ(rows[1].endCycle, 6u);
    EXPECT_EQ(rows[1].cycles, 2u);
    EXPECT_EQ(rows[1].insts, 2u);
    EXPECT_EQ(rows[1].stalls[0], 1u);
    EXPECT_EQ(rows[2].endCycle, 8u);
    EXPECT_EQ(rows[2].cycles, 2u);
    EXPECT_EQ(rows[2].insts, 4u);
    EXPECT_EQ(rows[2].stalls[0], 0u);
}

/** One grid point: (policy, period, cores). */
using GridPoint = std::tuple<AuthPolicy, Cycle, unsigned>;

class IntervalSeries : public ::testing::TestWithParam<GridPoint>
{
};

// Each core's one sampler feeds its table. The test keeps the name it
// had when a second, since removed, sink shared that sampler.
TEST_P(IntervalSeries, TableAndHeartbeatShareOneSampler)
{
    const auto [policy, period, cores] = GetParam();
    exp::Point point = mcfPoint(policy, cores);
    exp::Result off = exp::simulatePoint(point);

    std::vector<std::vector<obs::IntervalSample>> series(cores);
    point.cfg.statsInterval = period;
    point.finish = [&series](sim::System &system) {
        for (unsigned i = 0; i < system.numCores(); ++i)
            series[i] = system.core(i).intervals();
    };
    exp::Result on = exp::simulatePoint(point);

    // Passive: the sampler changes no statistic.
    EXPECT_EQ(on.run.insts, off.run.insts);
    EXPECT_EQ(on.run.cycles, off.run.cycles);
    EXPECT_EQ(on.counters, off.counters);
    EXPECT_EQ(on.averages, off.averages);
    EXPECT_EQ(on.distributions, off.distributions);

    // The result carries core 0's series.
    EXPECT_EQ(on.intervalPeriod, period);
    ASSERT_EQ(on.intervals.size(), series[0].size());
    for (std::size_t k = 0; k < on.intervals.size(); ++k)
        EXPECT_EQ(on.intervals[k].endCycle, series[0][k].endCycle);

    for (unsigned i = 0; i < cores; ++i) {
        SCOPED_TRACE("core " + std::to_string(i));
        const std::vector<obs::IntervalSample> &rows = series[i];
        ASSERT_FALSE(rows.empty());
        std::uint64_t cycles = 0, insts = 0;
        obs::StallArray stalls{};
        for (std::size_t k = 0; k < rows.size(); ++k) {
            const obs::IntervalSample &row = rows[k];
            if (k + 1 < rows.size()) {
                EXPECT_EQ(row.endCycle, (k + 1) * period);
                EXPECT_EQ(row.cycles, period);
            } else {
                EXPECT_GT(row.cycles, 0u);
                EXPECT_LE(row.cycles, period);
                EXPECT_EQ(row.endCycle, k * period + row.cycles);
            }
            std::uint64_t stalled = 0;
            for (unsigned c = 0; c < obs::kNumStallCauses; ++c)
                stalled += row.stalls[c];
            ASSERT_LE(stalled, row.cycles) << "row " << k;
            const std::uint64_t active = row.cycles - stalled;
            const unsigned width = point.cfg.commitWidth;
            EXPECT_LE((row.insts + width - 1) / width, active) << "row " << k;
            EXPECT_LE(active, row.insts) << "row " << k;

            cycles += row.cycles;
            insts += row.insts;
            for (unsigned c = 0; c < obs::kNumStallCauses; ++c)
                stalls[c] += row.stalls[c];
        }
        const std::string prefix =
            cores == 1 ? "core." : "cpu" + std::to_string(i) + ".core.";
        EXPECT_EQ(cycles, on.counters.at(prefix + "cycles"));
        EXPECT_EQ(insts, on.counters.at(prefix + "committed"));
        for (unsigned c = 0; c < obs::kNumStallCauses; ++c)
            EXPECT_EQ(stalls[c],
                      on.counters.at(prefix + "stall." +
                                     obs::stallCauseName(obs::StallCause(c))));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Mcf, IntervalSeries,
    ::testing::Combine(::testing::Values(AuthPolicy::kAuthThenCommit,
                                         AuthPolicy::kAuthThenIssue),
                       ::testing::Values(Cycle(1), Cycle(2000)),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<GridPoint> &info) {
        return std::string(std::get<0>(info.param) ==
                                   AuthPolicy::kAuthThenCommit
                               ? "commit"
                               : "issue") +
               "_P" + std::to_string(std::get<1>(info.param)) + "_" +
               std::to_string(std::get<2>(info.param)) + "core";
    });
