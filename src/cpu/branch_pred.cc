#include "cpu/branch_pred.hh"

namespace acp::cpu
{

BranchPredictor::BranchPredictor() : stats_("bpred")
{
    bimodal_.fill(2); // weakly taken
    stats_.addCounter("lookups", &lookups_);
    stats_.addCounter("ras_pushes", &rasPushes_);
    stats_.addCounter("ras_pops", &rasPops_);
}

unsigned
BranchPredictor::bimodalIndex(Addr pc) const
{
    return unsigned((pc >> 2) & (kBimodalEntries - 1));
}

unsigned
BranchPredictor::btbIndex(Addr pc) const
{
    return unsigned((pc >> 2) & (kBtbEntries - 1));
}

Prediction
BranchPredictor::predict(Addr pc, const isa::DecodedInst &inst)
{
    ++lookups_;
    Prediction pred;

    if (inst.op == isa::Op::kJal) {
        pred.taken = true;
        pred.target = inst.relTarget(pc);
        if (inst.rd == 1) { // call: push return address
            ++rasPushes_;
            ras_[rasTop_ % kRasEntries] = pc + isa::kInstrBytes;
            ++rasTop_;
        }
        return pred;
    }

    if (inst.op == isa::Op::kJalr) {
        pred.taken = true;
        if (inst.rd == 0 && inst.rs1 == 1 && rasTop_ > 0) {
            // Return through the link register: pop RAS.
            ++rasPops_;
            --rasTop_;
            pred.target = ras_[rasTop_ % kRasEntries];
        } else {
            const BtbEntry &entry = btb_[btbIndex(pc)];
            pred.target = (entry.valid && entry.pc == pc)
                              ? entry.target
                              : pc + isa::kInstrBytes;
            if (inst.rd == 1) { // indirect call
                ++rasPushes_;
                ras_[rasTop_ % kRasEntries] = pc + isa::kInstrBytes;
                ++rasTop_;
            }
        }
        return pred;
    }

    // Conditional branch: bimodal direction, decoded target.
    pred.taken = bimodal_[bimodalIndex(pc)] >= 2;
    pred.target = inst.relTarget(pc);
    return pred;
}

void
BranchPredictor::update(Addr pc, const isa::DecodedInst &inst, bool taken,
                        Addr target)
{
    if (inst.isBranch()) {
        std::uint8_t &counter = bimodal_[bimodalIndex(pc)];
        if (taken && counter < 3)
            ++counter;
        else if (!taken && counter > 0)
            --counter;
    }
    if (inst.op == isa::Op::kJalr) {
        BtbEntry &entry = btb_[btbIndex(pc)];
        entry.valid = true;
        entry.pc = pc;
        entry.target = target;
    }
}

} // namespace acp::cpu
