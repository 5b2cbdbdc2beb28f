/**
 * @file
 * Mini-ISA tests: encode/decode round trip (property over random
 * instructions), semantics of every opcode class, and the
 * ProgramBuilder label/fixup machinery.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hh"
#include "isa/instr.hh"
#include "isa/program.hh"
#include "isa/semantics.hh"

using namespace acp;
using namespace acp::isa;

namespace
{

double
bitsToDouble(std::uint64_t b)
{
    double d;
    std::memcpy(&d, &b, sizeof(d));
    return d;
}

std::uint64_t
doubleToBits(double d)
{
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

} // namespace

TEST(IsaEncode, RoundTripAllFormats)
{
    DecodedInst add;
    add.op = Op::kAdd;
    add.rd = 5;
    add.rs1 = 6;
    add.rs2 = 7;
    DecodedInst d = decode(encode(add));
    EXPECT_EQ(d.op, Op::kAdd);
    EXPECT_EQ(d.rd, 5);
    EXPECT_EQ(d.rs1, 6);
    EXPECT_EQ(d.rs2, 7);

    DecodedInst addi;
    addi.op = Op::kAddi;
    addi.rd = 3;
    addi.rs1 = 4;
    addi.imm = -123;
    d = decode(encode(addi));
    EXPECT_EQ(d.op, Op::kAddi);
    EXPECT_EQ(d.imm, -123);

    DecodedInst jal;
    jal.op = Op::kJal;
    jal.rd = 1;
    jal.imm = -100000;
    d = decode(encode(jal));
    EXPECT_EQ(d.op, Op::kJal);
    EXPECT_EQ(d.imm, -100000);
}

/** Property: encode(decode(w)) == w for every valid random encoding. */
TEST(IsaEncode, RandomRoundTripProperty)
{
    Rng rng(321);
    int tested = 0;
    while (tested < 2000) {
        std::uint32_t word = std::uint32_t(rng.next());
        DecodedInst d = decode(word);
        if (d.op == Op::kHalt)
            continue; // invalid opcodes fold to HALT; skip
        // Re-encode and re-decode: fields must be stable (encode may
        // canonicalize don't-care bits, so compare decoded fields).
        DecodedInst d2 = decode(encode(d));
        EXPECT_EQ(d.op, d2.op);
        EXPECT_EQ(d.rd, d2.rd);
        EXPECT_EQ(d.rs1, d2.rs1);
        EXPECT_EQ(d.rs2, d2.rs2);
        EXPECT_EQ(d.imm, d2.imm);
        ++tested;
    }
}

TEST(IsaDecode, InvalidOpcodeFoldsToHalt)
{
    std::uint32_t word = 0xfc000000; // opcode 63, far out of range
    EXPECT_EQ(decode(word).op, Op::kHalt);
}

TEST(IsaOpInfo, OutOfRangeOpcodePanics)
{
    EXPECT_DEATH(opInfo(Op::kNumOps), "invalid opcode");
}

TEST(IsaSemantics, IntAluOps)
{
    auto run = [](Op op, std::uint64_t a, std::uint64_t b) {
        DecodedInst inst;
        inst.op = op;
        inst.rd = 1;
        inst.rs1 = 2;
        inst.rs2 = 3;
        return execute(inst, a, b, 0x1000).value;
    };
    EXPECT_EQ(run(Op::kAdd, 3, 4), 7u);
    EXPECT_EQ(run(Op::kSub, 3, 4), std::uint64_t(-1));
    EXPECT_EQ(run(Op::kAnd, 0xf0f0, 0xff00), 0xf000u);
    EXPECT_EQ(run(Op::kOr, 0xf0f0, 0x0f0f), 0xffffu);
    EXPECT_EQ(run(Op::kXor, 0xff, 0x0f), 0xf0u);
    EXPECT_EQ(run(Op::kSll, 1, 12), 4096u);
    EXPECT_EQ(run(Op::kSrl, std::uint64_t(-1), 60), 15u);
    EXPECT_EQ(run(Op::kSra, std::uint64_t(-16), 2), std::uint64_t(-4));
    EXPECT_EQ(run(Op::kSlt, std::uint64_t(-5), 3), 1u);
    EXPECT_EQ(run(Op::kSltu, std::uint64_t(-5), 3), 0u);
    EXPECT_EQ(run(Op::kMul, 7, 9), 63u);
    EXPECT_EQ(run(Op::kDiv, 100, 7), 14u);
    EXPECT_EQ(run(Op::kRem, 100, 7), 2u);
    EXPECT_EQ(run(Op::kDiv, 5, 0), ~std::uint64_t(0));
    EXPECT_EQ(run(Op::kRem, 5, 0), 5u);
}

TEST(IsaSemantics, ImmediateOps)
{
    auto run = [](Op op, std::uint64_t a, std::int64_t imm) {
        DecodedInst inst;
        inst.op = op;
        inst.rd = 1;
        inst.rs1 = 2;
        inst.imm = imm;
        return execute(inst, a, 0, 0).value;
    };
    EXPECT_EQ(run(Op::kAddi, 10, -3), 7u);
    // Logical immediates zero-extend.
    EXPECT_EQ(run(Op::kOri, 0, std::int64_t(sext(0xffff, 16))), 0xffffu);
    EXPECT_EQ(run(Op::kAndi, 0xabcd1234, std::int64_t(sext(0xff00, 16))),
              0x1200u);
    EXPECT_EQ(run(Op::kXori, 0xff, std::int64_t(sext(0x00ff, 16))), 0u);
    EXPECT_EQ(run(Op::kSlli, 1, 40), 1ULL << 40);
    EXPECT_EQ(run(Op::kSrli, 1ULL << 40, 40), 1u);
    EXPECT_EQ(run(Op::kSrai, std::uint64_t(-64), 3), std::uint64_t(-8));
    EXPECT_EQ(run(Op::kSlti, std::uint64_t(-1), 0), 1u);
    // LUI zero-extends imm16 into bits [31:16].
    EXPECT_EQ(run(Op::kLui, 0, std::int64_t(sext(0xdead, 16))),
              0xdead0000u);
}

TEST(IsaSemantics, LoadsAndStores)
{
    DecodedInst load;
    load.op = Op::kLd;
    load.rd = 1;
    load.rs1 = 2;
    load.imm = 16;
    ExecResult r = execute(load, 0x1000, 0, 0);
    EXPECT_EQ(r.memAddr, 0x1010u);

    DecodedInst store;
    store.op = Op::kSw;
    store.rd = 3; // data source slot
    store.rs1 = 2;
    store.imm = -4;
    // v1 = base reg value, v2 = data reg value
    r = execute(store, 0x2000, 0xdeadbeef, 0);
    EXPECT_EQ(r.memAddr, 0x1ffcu);
    EXPECT_EQ(r.storeValue, 0xdeadbeefu);

    EXPECT_EQ(adjustLoadValue(Op::kLw, 0xffffffff80000000ULL),
              0xffffffff80000000ULL);
    EXPECT_EQ(adjustLoadValue(Op::kLw, 0x80000000ULL),
              0xffffffff80000000ULL);
    EXPECT_EQ(adjustLoadValue(Op::kLb, 0xff), std::uint64_t(-1));
    EXPECT_EQ(adjustLoadValue(Op::kLd, 0x123456789abcdef0ULL),
              0x123456789abcdef0ULL);
}

TEST(IsaSemantics, Branches)
{
    auto taken = [](Op op, std::uint64_t a, std::uint64_t b) {
        DecodedInst inst;
        inst.op = op;
        inst.rd = 1;
        inst.rs1 = 2;
        inst.imm = 4;
        return execute(inst, a, b, 0x1000).taken;
    };
    EXPECT_TRUE(taken(Op::kBeq, 5, 5));
    EXPECT_FALSE(taken(Op::kBeq, 5, 6));
    EXPECT_TRUE(taken(Op::kBne, 5, 6));
    EXPECT_TRUE(taken(Op::kBlt, std::uint64_t(-1), 0));
    EXPECT_FALSE(taken(Op::kBltu, std::uint64_t(-1), 0));
    EXPECT_TRUE(taken(Op::kBge, 7, 7));
    EXPECT_TRUE(taken(Op::kBgeu, std::uint64_t(-1), 1));

    DecodedInst branch;
    branch.op = Op::kBeq;
    branch.imm = -2;
    ExecResult r = execute(branch, 0, 0, 0x1008);
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.target, 0x1000u);
}

TEST(IsaSemantics, Jumps)
{
    DecodedInst jal;
    jal.op = Op::kJal;
    jal.rd = 1;
    jal.imm = 10;
    ExecResult r = execute(jal, 0, 0, 0x1000);
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.value, 0x1004u);
    EXPECT_EQ(r.target, 0x1028u);

    DecodedInst jalr;
    jalr.op = Op::kJalr;
    jalr.rd = 0;
    jalr.rs1 = 1;
    jalr.imm = 3;
    r = execute(jalr, 0x2000, 0, 0x1000);
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.target, 0x2000u); // low bits cleared
}

TEST(IsaSemantics, FloatingPoint)
{
    auto run = [](Op op, double a, double b) {
        DecodedInst inst;
        inst.op = op;
        inst.rd = 1;
        inst.rs1 = 2;
        inst.rs2 = 3;
        return bitsToDouble(
            execute(inst, doubleToBits(a), doubleToBits(b), 0).value);
    };
    EXPECT_DOUBLE_EQ(run(Op::kFadd, 1.5, 2.25), 3.75);
    EXPECT_DOUBLE_EQ(run(Op::kFsub, 1.5, 2.25), -0.75);
    EXPECT_DOUBLE_EQ(run(Op::kFmul, 3.0, 4.0), 12.0);
    EXPECT_DOUBLE_EQ(run(Op::kFdiv, 12.0, 4.0), 3.0);
    EXPECT_DOUBLE_EQ(run(Op::kFsqrt, 81.0, 0.0), 9.0);

    DecodedInst cvt;
    cvt.op = Op::kFcvtLD;
    EXPECT_DOUBLE_EQ(bitsToDouble(execute(cvt, 42, 0, 0).value), 42.0);
    cvt.op = Op::kFcvtDL;
    EXPECT_EQ(execute(cvt, doubleToBits(42.9), 0, 0).value, 42u);

    DecodedInst flt_inst;
    flt_inst.op = Op::kFlt;
    EXPECT_EQ(execute(flt_inst, doubleToBits(1.0), doubleToBits(2.0), 0)
                  .value, 1u);
    EXPECT_EQ(execute(flt_inst, doubleToBits(2.0), doubleToBits(1.0), 0)
                  .value, 0u);
}

TEST(IsaSemantics, OutAndHalt)
{
    DecodedInst out;
    out.op = Op::kOut;
    out.rs1 = 4;
    out.imm = 7;
    ExecResult r = execute(out, 0xdeadbeef, 0, 0);
    EXPECT_TRUE(r.isOut);
    EXPECT_EQ(r.outPort, 7u);
    EXPECT_EQ(r.storeValue, 0xdeadbeefu);

    DecodedInst halt_inst;
    halt_inst.op = Op::kHalt;
    EXPECT_TRUE(execute(halt_inst, 0, 0, 0).halted);
}

TEST(ProgramBuilder, ForwardAndBackwardLabels)
{
    ProgramBuilder pb(0x1000, "labels");
    Label loop = pb.newLabel();
    Label done = pb.newLabel();

    pb.li(5, 3);          // x5 = 3
    pb.bind(loop);
    pb.beq(5, 0, done);   // forward reference
    pb.addi(5, 5, -1);
    pb.j(loop);           // backward reference
    pb.bind(done);
    pb.halt();

    Program prog = pb.finish();
    ASSERT_EQ(prog.codeBase, 0x1000u);
    ASSERT_GE(prog.code.size(), 5u);

    // The beq (index 1) must target the halt (last index).
    DecodedInst beq_inst = decode(prog.code[1]);
    EXPECT_EQ(beq_inst.op, Op::kBeq);
    Addr beq_pc = prog.codeBase + 1 * kInstrBytes;
    Addr halt_pc = prog.codeBase + (prog.code.size() - 1) * kInstrBytes;
    EXPECT_EQ(beq_inst.relTarget(beq_pc), halt_pc);

    // The jal (index 3) must target the beq.
    DecodedInst jal_inst = decode(prog.code[3]);
    EXPECT_EQ(jal_inst.op, Op::kJal);
    EXPECT_EQ(jal_inst.relTarget(prog.codeBase + 3 * kInstrBytes), beq_pc);
}

TEST(ProgramBuilder, LiMaterializesConstants)
{
    // Verified fully in the functional executor tests; here check
    // instruction counts for the three size classes.
    ProgramBuilder pb_small(0x1000);
    pb_small.li(1, 42);
    EXPECT_EQ(pb_small.finish().code.size(), 1u);

    ProgramBuilder pb_mid(0x1000);
    pb_mid.li(1, 0x12345678);
    EXPECT_EQ(pb_mid.finish().code.size(), 2u);

    ProgramBuilder pb_big(0x1000);
    pb_big.li(1, 0x123456789abcdef0ULL);
    EXPECT_EQ(pb_big.finish().code.size(), 7u);
}

TEST(ProgramBuilder, DataSegments)
{
    ProgramBuilder pb(0x1000);
    pb.halt();
    pb.addData64(0x100000, 0xcafebabe12345678ULL);
    Program prog = pb.finish();
    ASSERT_EQ(prog.data.size(), 1u);
    EXPECT_EQ(prog.data[0].base, 0x100000u);
    ASSERT_EQ(prog.data[0].bytes.size(), 8u);
    EXPECT_EQ(prog.data[0].bytes[0], 0x78);
    EXPECT_EQ(prog.data[0].bytes[7], 0xca);
}

TEST(Disassemble, Formats)
{
    DecodedInst addi;
    addi.op = Op::kAddi;
    addi.rd = 5;
    addi.rs1 = 5;
    addi.imm = -1;
    EXPECT_EQ(disassemble(addi), "addi   x5, x5, -1");

    DecodedInst load;
    load.op = Op::kLd;
    load.rd = 2;
    load.rs1 = 3;
    load.imm = 8;
    EXPECT_EQ(disassemble(load), "ld     x2, 8(x3)");
}

/** Fuzz: the disassembler handles every 32-bit word without crashing
 *  and is deterministic. */
TEST(Disassemble, FuzzNeverCrashes)
{
    Rng rng(0xd15a55e);
    for (int i = 0; i < 5000; ++i) {
        std::uint32_t word = std::uint32_t(rng.next());
        DecodedInst inst = decode(word);
        std::string a = disassemble(inst, 0x1000);
        std::string b = disassemble(inst, 0x1000);
        EXPECT_EQ(a, b);
        EXPECT_FALSE(a.empty());
    }
}

/** Property: li() followed by functional execution materializes the
 *  exact constant for a spread of corner values. */
TEST(ProgramBuilder, LiValuesViaSemantics)
{
    const std::uint64_t values[] = {
        0, 1, 42, 0x7fff, 0x8000, 0xffff, 0x10000, 0x7fffffff,
        0x80000000, 0xffffffff, 0x100000000ULL, 0xdeadbeefcafef00dULL,
        ~0ULL, 1ULL << 63,
    };
    for (std::uint64_t value : values) {
        ProgramBuilder pb(0x1000);
        pb.li(5, value);
        Program prog = pb.finish();
        // Execute the li sequence with the pure semantics.
        std::uint64_t regs[32] = {0};
        Addr pc = prog.codeBase;
        for (std::uint32_t word : prog.code) {
            DecodedInst inst = decode(word);
            ExecResult res = execute(inst, regs[inst.srcReg1()],
                                     regs[inst.srcReg2()], pc);
            if (inst.destReg() != 0)
                regs[inst.destReg()] = res.value;
            pc += kInstrBytes;
        }
        EXPECT_EQ(regs[5], value) << std::hex << value;
    }
}

/** Branch offsets at the encodable extremes round-trip. */
TEST(IsaEncode, BranchOffsetExtremes)
{
    DecodedInst inst;
    inst.op = Op::kBeq;
    inst.rd = 1;
    inst.rs1 = 2;
    for (std::int64_t imm : {std::int64_t(-32768), std::int64_t(32767),
                             std::int64_t(0), std::int64_t(-1)}) {
        inst.imm = imm;
        EXPECT_EQ(decode(encode(inst)).imm, imm);
    }

    DecodedInst jal;
    jal.op = Op::kJal;
    for (std::int64_t imm : {std::int64_t(-(1 << 20)),
                             std::int64_t((1 << 20) - 1)}) {
        jal.imm = imm;
        EXPECT_EQ(decode(encode(jal)).imm, imm);
    }
}
