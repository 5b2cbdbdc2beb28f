/**
 * @file
 * Functional executor tests: whole-program execution of loops, memory,
 * calls and FP over a flat memory, and the flat memory's image load and
 * accesses at page ends and at the wrap point.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "cpu/flat_mem.hh"
#include "cpu/func_executor.hh"
#include "isa/program.hh"

using namespace acp;
using namespace acp::cpu;
using namespace acp::isa;

namespace
{

struct Machine
{
    explicit Machine(const Program &prog) : mem(1 << 24)
    {
        mem.loadProgram(prog);
        exec = std::make_unique<FuncExecutor>(mem, prog.entry);
    }

    FlatMem mem;
    std::unique_ptr<FuncExecutor> exec;
};

} // namespace

TEST(FuncExecutor, CountdownLoop)
{
    ProgramBuilder pb(0x1000, "loop");
    Label loop = pb.newLabel(), done = pb.newLabel();
    pb.li(5, 10);     // x5 = 10
    pb.li(6, 0);      // x6 = 0 (accumulator)
    pb.bind(loop);
    pb.beq(5, 0, done);
    pb.add(6, 6, 5);  // x6 += x5
    pb.addi(5, 5, -1);
    pb.j(loop);
    pb.bind(done);
    pb.halt();

    Machine m(pb.finish());
    m.exec->run(1000);
    EXPECT_TRUE(m.exec->halted());
    EXPECT_EQ(m.exec->reg(6), 55u); // 10+9+...+1
}

TEST(FuncExecutor, MemoryStoreLoad)
{
    ProgramBuilder pb(0x1000, "mem");
    pb.li(1, 0x8000);
    pb.li(2, 0x12345678);
    pb.sw(2, 0, 1);
    pb.lw(3, 0, 1);
    pb.li(4, 0xffffffffffffffffULL);
    pb.sd(4, 8, 1);
    pb.ld(5, 8, 1);
    pb.lb(6, 8, 1);
    pb.halt();

    Machine m(pb.finish());
    m.exec->run(100);
    EXPECT_EQ(m.exec->reg(3), 0x12345678u);
    EXPECT_EQ(m.exec->reg(5), ~0ULL);
    EXPECT_EQ(m.exec->reg(6), ~0ULL); // sign-extended byte
    EXPECT_EQ(m.mem.read(0x8000, 4), 0x12345678u);
}

TEST(FuncExecutor, CallAndReturn)
{
    ProgramBuilder pb(0x1000, "call");
    Label func = pb.newLabel(), after = pb.newLabel();
    pb.li(10, 5);
    pb.call(func);
    pb.j(after);
    pb.bind(func);      // x10 = x10 * 3
    pb.li(11, 3);
    pb.mul(10, 10, 11);
    pb.ret();
    pb.bind(after);
    pb.halt();

    Machine m(pb.finish());
    m.exec->run(100);
    EXPECT_TRUE(m.exec->halted());
    EXPECT_EQ(m.exec->reg(10), 15u);
}

TEST(FuncExecutor, FloatingPointKernel)
{
    // Sum of i*0.5 for i in [1,8] = 18.0
    ProgramBuilder pb(0x1000, "fp");
    Label loop = pb.newLabel(), done = pb.newLabel();
    pb.li(1, 8);
    pb.lid(2, 0.0);   // acc
    pb.lid(3, 0.5);
    pb.bind(loop);
    pb.beq(1, 0, done);
    pb.fcvtld(4, 1);      // double(i)
    pb.fmul(4, 4, 3);     // i*0.5
    pb.fadd(2, 2, 4);
    pb.addi(1, 1, -1);
    pb.j(loop);
    pb.bind(done);
    pb.fcvtdl(5, 2);      // int(acc)
    pb.halt();

    Machine m(pb.finish());
    m.exec->run(1000);
    EXPECT_EQ(m.exec->reg(5), 18u);
}

TEST(FuncExecutor, HaltStopsExecution)
{
    ProgramBuilder pb(0x1000, "halt");
    pb.li(1, 1);
    pb.halt();
    pb.li(1, 99); // never executed

    Machine m(pb.finish());
    std::uint64_t steps = m.exec->run(100);
    EXPECT_TRUE(m.exec->halted());
    EXPECT_LE(steps, 3u);
    EXPECT_EQ(m.exec->reg(1), 1u);

    // Further steps are no-ops.
    StepInfo info = m.exec->step();
    EXPECT_TRUE(info.halted);
    EXPECT_EQ(m.exec->reg(1), 1u);
}

TEST(FuncExecutor, OutInstruction)
{
    ProgramBuilder pb(0x1000, "out");
    pb.li(1, 0xbeef);
    pb.out(1, 3);
    pb.halt();

    Machine m(pb.finish());
    StepInfo info;
    // li may be 1-2 instructions; step until the OUT appears.
    for (int i = 0; i < 5; ++i) {
        info = m.exec->step();
        if (info.isOut)
            break;
    }
    EXPECT_TRUE(info.isOut);
    EXPECT_EQ(info.outValue, 0xbeefu);
    EXPECT_EQ(info.outPort, 3u);
}

TEST(FuncExecutor, X0AlwaysZero)
{
    ProgramBuilder pb(0x1000, "x0");
    pb.li(1, 7);
    pb.add(0, 1, 1); // attempt to write x0
    pb.add(2, 0, 0); // read it back
    pb.halt();

    Machine m(pb.finish());
    m.exec->run(100);
    EXPECT_EQ(m.exec->reg(0), 0u);
    EXPECT_EQ(m.exec->reg(2), 0u);
}

namespace
{

/** The image the per-byte write loop leaves: code words, then each
 *  data byte in segment order. */
void
loadPerByte(FlatMem &mem, const Program &prog)
{
    for (std::size_t i = 0; i < prog.code.size(); ++i)
        mem.write(prog.codeBase + 4 * i, 4, prog.code[i]);
    for (const DataSegment &seg : prog.data)
        for (std::size_t i = 0; i < seg.bytes.size(); ++i)
            mem.write(seg.base + i, 1, seg.bytes[i]);
}

void
expectSameImage(const Program &prog, std::uint64_t size_bytes)
{
    FlatMem paged(size_bytes), per_byte(size_bytes);
    paged.loadProgram(prog);
    loadPerByte(per_byte, prog);
    for (Addr a = 0; a < size_bytes; ++a)
        ASSERT_EQ(paged.read(a, 1), per_byte.read(a, 1)) << "byte " << a;
}

std::vector<std::uint8_t>
randomBytes(Rng &rng, std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = std::uint8_t(rng.next());
    return v;
}

} // namespace

TEST(FlatMem, PageWiseLoadMatchesPerByteWrites)
{
    Rng rng(17);
    Program prog;
    prog.codeBase = 0x1000;
    prog.code = {0x11111111, 0x22222222, 0x33333333, 0x44444444};
    prog.data = {
        {0x2345, randomBytes(rng, 100)},          // starts mid-page
        {0x3801, randomBytes(rng, 3 * 4096 + 17)}, // spans four pages
        {0x5800, randomBytes(rng, 5000)},         // overlaps its tail; wins
        {0x1006, randomBytes(rng, 4)},            // overwrites code bytes
        {0xfff0, randomBytes(rng, 40)},           // wraps past 64 KiB
    };
    expectSameImage(prog, 1 << 16);
}

TEST(FlatMem, PageWiseLoadWrapsInsideASmallMemory)
{
    // A 256-byte memory is smaller than a page: a segment of 600 bytes
    // wraps more than twice, and each later byte overwrites an earlier.
    Rng rng(18);
    Program prog;
    prog.data = {{200, randomBytes(rng, 600)}};
    expectSameImage(prog, 256);
}

namespace
{

/** FlatMem's meaning, one byte at a time: byte i of an access lives
 *  at (addr + i) mod size, little-endian. */
struct PerByteMem
{
    explicit PerByteMem(std::uint64_t size_bytes) : bytes(size_bytes, 0) {}

    std::uint64_t
    read(Addr addr, unsigned n) const
    {
        std::uint64_t value = 0;
        for (unsigned i = 0; i < n; ++i)
            value |= std::uint64_t(bytes[(addr + i) % bytes.size()])
                     << (8 * i);
        return value;
    }

    void
    write(Addr addr, unsigned n, std::uint64_t value)
    {
        for (unsigned i = 0; i < n; ++i)
            bytes[(addr + i) % bytes.size()] = std::uint8_t(value >> (8 * i));
    }

    std::vector<std::uint8_t> bytes;
};

/**
 * Write and read 1, 2, 4 and 8 bytes at every address within 8 bytes
 * of each edge in @p edges, on a FlatMem and on the per-byte model,
 * and require every read and finally every byte to agree.
 */
void
expectEdgeAccessesMatch(std::uint64_t size_bytes,
                        const std::vector<Addr> &edges)
{
    FlatMem mem(size_bytes);
    PerByteMem ref(size_bytes);
    Rng rng(size_bytes);
    for (Addr edge : edges) {
        for (Addr a = edge - 8; a < edge + 8; ++a) {
            for (unsigned n : {1u, 2u, 4u, 8u}) {
                std::uint64_t v = rng.next();
                mem.write(a, n, v);
                ref.write(a, n, v);
                for (Addr r = edge - 8; r < edge + 8; ++r)
                    for (unsigned m : {1u, 2u, 4u, 8u})
                        ASSERT_EQ(mem.read(r, m), ref.read(r, m))
                            << "write " << n << "@" << a << ", read " << m
                            << "@" << r;
            }
        }
    }
    for (Addr a = 0; a < size_bytes; ++a)
        ASSERT_EQ(mem.read(a, 1), ref.bytes[a]) << "byte " << a;
}

} // namespace

TEST(FlatMem, AccessesAtPageEndsMatchPerByte)
{
    // Two page ends, and the end of a 64 KiB memory, which wraps to 0.
    expectEdgeAccessesMatch(1 << 16, {0x1000, 0x2000, 0x10000});
}

TEST(FlatMem, AccessesAtTheEndOfASmallMemoryMatchPerByte)
{
    // 256 bytes is smaller than a page: the wrap point lies inside
    // the one page, and so does every alias of it.
    expectEdgeAccessesMatch(256, {256, 0x1000, 0x3100});
}
