#include "cpu/func_executor.hh"

#include "common/logging.hh"
#include "isa/opcodes.hh"

namespace acp::cpu
{

FuncExecutor::FuncExecutor(FlatMem &mem, Addr entry)
    : mem_(mem), pc_(entry)
{
}

StepInfo
FuncExecutor::step()
{
    StepInfo info;
    if (halted_) {
        info.halted = true;
        return info;
    }

    info.pc = pc_;
    std::uint32_t word = mem_.fetch(pc_);
    info.inst = isa::decode(word);

    std::uint64_t v1 = regs_[info.inst.srcReg1()];
    std::uint64_t v2 = regs_[info.inst.srcReg2()];
    isa::ExecResult res = isa::execute(info.inst, v1, v2, pc_);

    Addr next_pc = pc_ + isa::kInstrBytes;

    if (info.inst.isLoad()) {
        unsigned bytes = isa::memAccessBytes(info.inst.op);
        std::uint64_t raw = mem_.read(res.memAddr, bytes);
        res.value = isa::adjustLoadValue(info.inst.op, raw);
        info.memAddr = res.memAddr;
        info.memBytes = bytes;
    } else if (info.inst.isStore()) {
        unsigned bytes = isa::memAccessBytes(info.inst.op);
        mem_.write(res.memAddr, bytes, res.storeValue);
        info.isStore = true;
        info.memAddr = res.memAddr;
        info.storeValue = res.storeValue;
        info.memBytes = bytes;
    }

    if (res.taken)
        next_pc = res.target;

    unsigned dest = info.inst.destReg();
    if (dest != 0) {
        regs_[dest] = res.value;
        info.wroteRd = true;
        info.rdValue = res.value;
    }

    if (res.isOut) {
        info.isOut = true;
        info.outValue = res.storeValue;
        info.outPort = res.outPort;
    }

    if (res.halted) {
        halted_ = true;
        info.halted = true;
    }

    pc_ = next_pc;
    info.nextPc = next_pc;
    return info;
}

std::uint64_t
FuncExecutor::run(std::uint64_t max_insts)
{
    std::uint64_t count = 0;
    while (count < max_insts && !halted_) {
        step();
        ++count;
    }
    return count;
}

} // namespace acp::cpu
