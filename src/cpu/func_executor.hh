/**
 * @file
 * In-order functional executor over a flat reference memory. Serves
 * three roles: (1) SimPoint-style fast-forward before the timed
 * window, (2) the architectural shadow for commit-time co-simulation
 * of the OoO core, and (3) a reference implementation for ISA tests.
 */

#ifndef ACP_CPU_FUNC_EXECUTOR_HH
#define ACP_CPU_FUNC_EXECUTOR_HH

#include <array>

#include "common/types.hh"
#include "cpu/flat_mem.hh"
#include "isa/instr.hh"
#include "isa/semantics.hh"

namespace acp::cpu
{

/** What one retired instruction did (for co-simulation comparison). */
struct StepInfo
{
    Addr pc = 0;
    isa::DecodedInst inst;
    bool wroteRd = false;
    std::uint64_t rdValue = 0;
    bool isStore = false;
    Addr memAddr = 0;
    std::uint64_t storeValue = 0;
    unsigned memBytes = 0;
    bool halted = false;
    bool isOut = false;
    std::uint64_t outValue = 0;
    std::uint64_t outPort = 0;
    Addr nextPc = 0;
};

/** The executor. */
class FuncExecutor
{
  public:
    /** Run against @p mem (non-owning) from @p entry. */
    FuncExecutor(FlatMem &mem, Addr entry);

    /** Execute one instruction; no-op (halted StepInfo) after HALT. */
    StepInfo step();

    /** Run up to @p max_insts or until HALT; returns count executed. */
    std::uint64_t run(std::uint64_t max_insts);

    Addr pc() const { return pc_; }
    bool halted() const { return halted_; }

    std::uint64_t reg(unsigned idx) const { return regs_[idx & 31]; }
    void
    setReg(unsigned idx, std::uint64_t v)
    {
        if ((idx & 31) != 0)
            regs_[idx & 31] = v;
    }

  private:
    FlatMem &mem_;
    Addr pc_;
    bool halted_ = false;
    std::array<std::uint64_t, 32> regs_{};
};

} // namespace acp::cpu

#endif // ACP_CPU_FUNC_EXECUTOR_HH
