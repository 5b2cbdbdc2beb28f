/**
 * @file
 * Program container and the ProgramBuilder "assembler" used to author
 * workloads and attack kernels directly in C++ with labels, forward
 * references and a few convenience pseudo-instructions.
 */

#ifndef ACP_ISA_PROGRAM_HH
#define ACP_ISA_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/instr.hh"

namespace acp::isa
{

/** A data segment loaded into simulated memory before execution. */
struct DataSegment
{
    Addr base = 0;
    std::vector<std::uint8_t> bytes;
};

/** An assembled program: code image plus initialized data segments. */
struct Program
{
    std::string name;
    /** Base address of the code image. */
    Addr codeBase = 0;
    /** Entry PC. */
    Addr entry = 0;
    /** Instruction words. */
    std::vector<std::uint32_t> code;
    /** Initialized data. */
    std::vector<DataSegment> data;
};

/** Opaque label handle issued by ProgramBuilder. */
struct Label
{
    std::uint32_t id = ~std::uint32_t(0);
    bool valid() const { return id != ~std::uint32_t(0); }
};

/**
 * Builder producing a Program. One method per opcode, plus labels and
 * pseudo-instructions. Register operands are plain unsigned register
 * numbers (0..31); x0 reads as zero and ignores writes.
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(Addr code_base, std::string name = "prog");

    /** Create an unbound label. */
    Label newLabel();
    /** Bind @p l to the current code position. */
    void bind(Label l);
    /** Address the next emitted instruction will have. */
    Addr here() const;

    // --- raw emission -----------------------------------------------
    /** Emit an already-decoded instruction (no label fixups). */
    void emit(const DecodedInst &inst);
    /** Emit a raw word (for deliberately malformed encodings). */
    void emitWord(std::uint32_t word);

    // --- register-register ------------------------------------------
    void add(unsigned rd, unsigned rs1, unsigned rs2);
    void sub(unsigned rd, unsigned rs1, unsigned rs2);
    void and_(unsigned rd, unsigned rs1, unsigned rs2);
    void or_(unsigned rd, unsigned rs1, unsigned rs2);
    void xor_(unsigned rd, unsigned rs1, unsigned rs2);
    void sll(unsigned rd, unsigned rs1, unsigned rs2);
    void srl(unsigned rd, unsigned rs1, unsigned rs2);
    void sra(unsigned rd, unsigned rs1, unsigned rs2);
    void slt(unsigned rd, unsigned rs1, unsigned rs2);
    void sltu(unsigned rd, unsigned rs1, unsigned rs2);
    void mul(unsigned rd, unsigned rs1, unsigned rs2);
    void div(unsigned rd, unsigned rs1, unsigned rs2);
    void rem(unsigned rd, unsigned rs1, unsigned rs2);

    // --- register-immediate -----------------------------------------
    void addi(unsigned rd, unsigned rs1, std::int64_t imm);
    void andi(unsigned rd, unsigned rs1, std::uint64_t imm);
    void ori(unsigned rd, unsigned rs1, std::uint64_t imm);
    void xori(unsigned rd, unsigned rs1, std::uint64_t imm);
    void slli(unsigned rd, unsigned rs1, unsigned sh);
    void srli(unsigned rd, unsigned rs1, unsigned sh);
    void srai(unsigned rd, unsigned rs1, unsigned sh);
    void slti(unsigned rd, unsigned rs1, std::int64_t imm);
    void lui(unsigned rd, std::uint64_t imm16);

    // --- memory ------------------------------------------------------
    void ld(unsigned rd, std::int64_t off, unsigned base);
    void lw(unsigned rd, std::int64_t off, unsigned base);
    void lb(unsigned rd, std::int64_t off, unsigned base);
    void sd(unsigned rsrc, std::int64_t off, unsigned base);
    void sw(unsigned rsrc, std::int64_t off, unsigned base);
    void sb(unsigned rsrc, std::int64_t off, unsigned base);

    // --- control -----------------------------------------------------
    void beq(unsigned r1, unsigned r2, Label target);
    void bne(unsigned r1, unsigned r2, Label target);
    void blt(unsigned r1, unsigned r2, Label target);
    void bge(unsigned r1, unsigned r2, Label target);
    void bltu(unsigned r1, unsigned r2, Label target);
    void bgeu(unsigned r1, unsigned r2, Label target);
    void jal(unsigned rd, Label target);
    void jalr(unsigned rd, unsigned rs1, std::int64_t imm = 0);

    // --- floating point ----------------------------------------------
    void fadd(unsigned rd, unsigned rs1, unsigned rs2);
    void fsub(unsigned rd, unsigned rs1, unsigned rs2);
    void fmul(unsigned rd, unsigned rs1, unsigned rs2);
    void fdiv(unsigned rd, unsigned rs1, unsigned rs2);
    void fsqrt(unsigned rd, unsigned rs1);
    void fcvtld(unsigned rd, unsigned rs1); // int64 -> double
    void fcvtdl(unsigned rd, unsigned rs1); // double -> int64
    void flt(unsigned rd, unsigned rs1, unsigned rs2);

    // --- system ------------------------------------------------------
    void out(unsigned rs1, std::uint16_t port = 0);
    void halt();
    void nop();

    // --- pseudo-instructions ------------------------------------------
    /** Load an arbitrary 64-bit constant into rd (1-7 instructions). */
    void li(unsigned rd, std::uint64_t value);
    /** Register move. */
    void mv(unsigned rd, unsigned rs) { addi(rd, rs, 0); }
    /** Unconditional jump. */
    void j(Label target) { jal(0, target); }
    /** Call via x1 link register. */
    void call(Label target) { jal(1, target); }
    /** Return through x1. */
    void ret() { jalr(0, 1, 0); }
    /** Load the IEEE bits of @p d into rd. */
    void lid(unsigned rd, double d);

    // --- data ----------------------------------------------------------
    /** Attach an initialized data segment to the program. */
    void addData(Addr base, std::vector<std::uint8_t> bytes);
    /** Store a little-endian uint64 into a data segment at @p addr. */
    void addData64(Addr addr, std::uint64_t value);

    /** Resolve fixups and produce the Program. Aborts on unbound labels. */
    Program finish();

  private:
    void emitBranch(Op op, unsigned r1, unsigned r2, Label target);

    struct Fixup
    {
        std::size_t wordIndex;
        std::uint32_t labelId;
    };

    std::string name_;
    Addr codeBase_;
    std::vector<std::uint32_t> code_;
    std::vector<DecodedInst> pending_; // parallel to code_, pre-fixup
    std::vector<std::int64_t> labelPos_; // word index or -1 if unbound
    std::vector<Fixup> fixups_;
    std::vector<DataSegment> data_;
    bool finished_ = false;
};

} // namespace acp::isa

#endif // ACP_ISA_PROGRAM_HH
