/**
 * @file
 * Opcode definitions and static per-opcode properties for the ACP
 * mini-ISA: a 64-bit RISC with 32 integer registers (x0 hardwired to
 * zero), fixed 32-bit instruction words and byte-addressed memory.
 * The ISA is deliberately SimpleScalar/Alpha-flavoured: enough to
 * express the SPEC2000-class synthetic workloads and the paper's
 * attack kernels, while keeping decode trivial.
 */

#ifndef ACP_ISA_OPCODES_HH
#define ACP_ISA_OPCODES_HH

#include <cstdint>

namespace acp::isa
{

/** Number of architectural integer registers. */
constexpr unsigned kNumRegs = 32;

/** All opcodes. FP ops operate on IEEE-754 doubles stored in x-regs. */
enum class Op : std::uint8_t
{
    kNop = 0,
    // Register-register ALU
    kAdd, kSub, kAnd, kOr, kXor, kSll, kSrl, kSra, kSlt, kSltu,
    kMul, kDiv, kRem,
    // Register-immediate ALU
    kAddi, kAndi, kOri, kXori, kSlli, kSrli, kSrai, kSlti, kLui,
    // Memory
    kLd, kLw, kLb, kSd, kSw, kSb,
    // Control transfer
    kBeq, kBne, kBlt, kBge, kBltu, kBgeu, kJal, kJalr,
    // Floating point (double precision bit patterns in integer regs)
    kFadd, kFsub, kFmul, kFdiv, kFsqrt, kFcvtLD, kFcvtDL, kFlt,
    // System
    kOut, kHalt,
    kNumOps
};

/** Functional-unit class an opcode executes on. */
enum class FuClass : std::uint8_t
{
    kIntAlu,
    kIntMul,
    kIntDiv,
    kMemPort,
    kFpAdd,
    kFpMul,
    kFpDiv,
    kNone, // kNop / kHalt
};

/** Instruction word format. */
enum class Format : std::uint8_t
{
    kRType, // op rd, rs1, rs2
    kIType, // op rd, rs1, imm16
    kSType, // op rs2(data, in rd slot), rs1(base), imm16
    kBType, // op rs1(rd slot), rs2(rs1 slot), imm16 (pc-relative words)
    kJType, // op rd, imm21 (pc-relative words)
    kNType, // no operands
};

/** Static properties of one opcode. */
struct OpInfo
{
    const char *mnemonic;
    Format format;
    FuClass fu;
    /** Execution latency in cycles once issued to its unit. */
    std::uint8_t latency;
    /** Whether the unit is pipelined (can accept an op every cycle). */
    bool pipelined;
    bool isLoad;
    bool isStore;
    /** Conditional branch. */
    bool isBranch;
    /** Unconditional jump (kJal/kJalr). */
    bool isJump;
    bool writesRd;
    bool readsRs1;
    bool readsRs2;
};

namespace detail
{

// Table indexed by Op. Latencies follow classic SimpleScalar defaults.
inline constexpr OpInfo kOpTable[unsigned(Op::kNumOps)] = {
    // mnemonic fmt              fu                 lat pipe ld     st     br     jmp    wrD    rS1    rS2
    {"nop",   Format::kNType, FuClass::kNone,    1,  true,  false, false, false, false, false, false, false},
    {"add",   Format::kRType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  true },
    {"sub",   Format::kRType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  true },
    {"and",   Format::kRType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  true },
    {"or",    Format::kRType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  true },
    {"xor",   Format::kRType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  true },
    {"sll",   Format::kRType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  true },
    {"srl",   Format::kRType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  true },
    {"sra",   Format::kRType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  true },
    {"slt",   Format::kRType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  true },
    {"sltu",  Format::kRType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  true },
    {"mul",   Format::kRType, FuClass::kIntMul,  3,  true,  false, false, false, false, true,  true,  true },
    {"div",   Format::kRType, FuClass::kIntDiv,  20, false, false, false, false, false, true,  true,  true },
    {"rem",   Format::kRType, FuClass::kIntDiv,  20, false, false, false, false, false, true,  true,  true },
    {"addi",  Format::kIType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  false},
    {"andi",  Format::kIType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  false},
    {"ori",   Format::kIType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  false},
    {"xori",  Format::kIType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  false},
    {"slli",  Format::kIType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  false},
    {"srli",  Format::kIType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  false},
    {"srai",  Format::kIType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  false},
    {"slti",  Format::kIType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  true,  false},
    {"lui",   Format::kIType, FuClass::kIntAlu,  1,  true,  false, false, false, false, true,  false, false},
    {"ld",    Format::kIType, FuClass::kMemPort, 1,  true,  true,  false, false, false, true,  true,  false},
    {"lw",    Format::kIType, FuClass::kMemPort, 1,  true,  true,  false, false, false, true,  true,  false},
    {"lb",    Format::kIType, FuClass::kMemPort, 1,  true,  true,  false, false, false, true,  true,  false},
    {"sd",    Format::kSType, FuClass::kMemPort, 1,  true,  false, true,  false, false, false, true,  true },
    {"sw",    Format::kSType, FuClass::kMemPort, 1,  true,  false, true,  false, false, false, true,  true },
    {"sb",    Format::kSType, FuClass::kMemPort, 1,  true,  false, true,  false, false, false, true,  true },
    {"beq",   Format::kBType, FuClass::kIntAlu,  1,  true,  false, false, true,  false, false, true,  true },
    {"bne",   Format::kBType, FuClass::kIntAlu,  1,  true,  false, false, true,  false, false, true,  true },
    {"blt",   Format::kBType, FuClass::kIntAlu,  1,  true,  false, false, true,  false, false, true,  true },
    {"bge",   Format::kBType, FuClass::kIntAlu,  1,  true,  false, false, true,  false, false, true,  true },
    {"bltu",  Format::kBType, FuClass::kIntAlu,  1,  true,  false, false, true,  false, false, true,  true },
    {"bgeu",  Format::kBType, FuClass::kIntAlu,  1,  true,  false, false, true,  false, false, true,  true },
    {"jal",   Format::kJType, FuClass::kIntAlu,  1,  true,  false, false, false, true,  true,  false, false},
    {"jalr",  Format::kIType, FuClass::kIntAlu,  1,  true,  false, false, false, true,  true,  true,  false},
    {"fadd",  Format::kRType, FuClass::kFpAdd,   2,  true,  false, false, false, false, true,  true,  true },
    {"fsub",  Format::kRType, FuClass::kFpAdd,   2,  true,  false, false, false, false, true,  true,  true },
    {"fmul",  Format::kRType, FuClass::kFpMul,   4,  true,  false, false, false, false, true,  true,  true },
    {"fdiv",  Format::kRType, FuClass::kFpDiv,   12, false, false, false, false, false, true,  true,  true },
    {"fsqrt", Format::kRType, FuClass::kFpDiv,   24, false, false, false, false, false, true,  true,  false},
    {"fcvtld",Format::kRType, FuClass::kFpAdd,   2,  true,  false, false, false, false, true,  true,  false},
    {"fcvtdl",Format::kRType, FuClass::kFpAdd,   2,  true,  false, false, false, false, true,  true,  false},
    {"flt",   Format::kRType, FuClass::kFpAdd,   2,  true,  false, false, false, false, true,  true,  true },
    {"out",   Format::kIType, FuClass::kIntAlu,  1,  true,  false, false, false, false, false, true,  false},
    {"halt",  Format::kNType, FuClass::kNone,    1,  true,  false, false, false, false, false, false, false},
};

/** Out-of-line, cold: report an opcode past the table and abort. */
[[noreturn, gnu::cold]] void badOpcode(unsigned idx);

} // namespace detail

/** Look up static properties; aborts on out-of-range opcode. */
inline const OpInfo &
opInfo(Op op)
{
    const unsigned idx = unsigned(op);
    if (idx >= unsigned(Op::kNumOps)) [[unlikely]]
        detail::badOpcode(idx);
    return detail::kOpTable[idx];
}

/** Memory access size in bytes for load/store opcodes (else 0). */
unsigned memAccessBytes(Op op);

} // namespace acp::isa

#endif // ACP_ISA_OPCODES_HH
