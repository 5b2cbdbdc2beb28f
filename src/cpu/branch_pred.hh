/**
 * @file
 * Branch prediction: bimodal 2-bit counter table, direct-mapped BTB,
 * and a return address stack — the SimpleScalar default configuration
 * class used by the paper's processor model.
 */

#ifndef ACP_CPU_BRANCH_PRED_HH
#define ACP_CPU_BRANCH_PRED_HH

#include <array>

#include "common/bitops.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/instr.hh"

namespace acp::cpu
{

/** Table sizes (paper Table 3's SimpleScalar defaults). */
constexpr unsigned kBimodalEntries = 4096;
constexpr unsigned kBtbEntries = 1024;
constexpr unsigned kRasEntries = 16;
static_assert(isPowerOfTwo(kBimodalEntries) && isPowerOfTwo(kBtbEntries),
              "the tables are indexed by masking the pc");

/** Fetch-time prediction. */
struct Prediction
{
    bool taken = false;
    Addr target = 0;
};

/** The predictor. */
class BranchPredictor
{
  public:
    BranchPredictor();

    /**
     * Predict a decoded control instruction at @p pc.
     * Direct jumps are always taken with the decoded target; JALR uses
     * RAS (returns) or BTB (indirect); conditional branches use the
     * bimodal table and their decoded target.
     */
    Prediction predict(Addr pc, const isa::DecodedInst &inst);

    /** Train with the resolved outcome. */
    void update(Addr pc, const isa::DecodedInst &inst, bool taken,
                Addr target);

    /** Squash-side RAS repair is not modeled; RAS corruption after a
     *  misprediction simply costs accuracy, as in SimpleScalar. */
    StatGroup &stats() { return stats_; }
    std::uint64_t lookups() const { return lookups_.value(); }

  private:
    unsigned bimodalIndex(Addr pc) const;
    unsigned btbIndex(Addr pc) const;

    std::array<std::uint8_t, kBimodalEntries> bimodal_; // 2-bit counters
    struct BtbEntry
    {
        bool valid = false;
        Addr pc = 0;
        Addr target = 0;
    };
    std::array<BtbEntry, kBtbEntries> btb_{};
    std::array<Addr, kRasEntries> ras_{};
    std::size_t rasTop_ = 0; // count of valid entries

    StatGroup stats_;
    StatCounter lookups_;
    StatCounter rasPushes_;
    StatCounter rasPops_;
};

} // namespace acp::cpu

#endif // ACP_CPU_BRANCH_PRED_HH
