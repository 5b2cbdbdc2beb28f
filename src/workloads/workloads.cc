#include "workloads/workloads.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace acp::workloads
{

using isa::Label;
using isa::Program;
using isa::ProgramBuilder;

namespace
{

/** All workload data lives above this address. */
constexpr Addr kDataBase = 0x00100000;
/** Code base for every workload. */
constexpr Addr kCodeBase = 0x00001000;

// The simulated machine is little-endian, as the host must be: a data
// image is its words' host bytes, packed with one block copy.
static_assert(std::endian::native == std::endian::little,
              "workload images copy host words as little-endian bytes");

std::vector<std::uint8_t>
packU64(const std::vector<std::uint64_t> &vals)
{
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(vals.data());
    return {bytes, bytes + 8 * vals.size()};
}

std::vector<std::uint8_t>
packF64(const std::vector<double> &vals)
{
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(vals.data());
    return {bytes, bytes + 8 * vals.size()};
}

/** Emit xorshift64 on register @p r using @p tmp as scratch. */
void
emitXorshift(ProgramBuilder &pb, unsigned r, unsigned tmp)
{
    pb.srli(tmp, r, 12);
    pb.xor_(r, r, tmp);
    pb.slli(tmp, r, 25);
    pb.xor_(r, r, tmp);
    pb.srli(tmp, r, 27);
    pb.xor_(r, r, tmp);
}

// =====================================================================
// INT workloads
// =====================================================================

/**
 * mcf: pointer chasing over a randomized ring of 64-byte nodes — the
 * classic latency-bound sparse traversal.
 */
Program
buildMcf(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "mcf");
    std::uint64_t nodes = params.workingSetBytes / 64;
    Rng rng(params.seed);

    // A shuffled full cycle: node order[i] points to node order[i+1].
    std::vector<std::uint64_t> order(nodes);
    for (std::uint64_t i = 0; i < nodes; ++i)
        order[i] = i;
    for (std::uint64_t i = nodes - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);
    std::vector<std::uint64_t> image(nodes * 8, 0);
    for (std::uint64_t i = 0; i < nodes; ++i) {
        std::uint64_t from = order[i];
        std::uint64_t to = order[(i + 1) % nodes];
        image[from * 8] = kDataBase + to * 64; // next pointer
        image[from * 8 + 1] = rng.below(1000); // node weight
    }
    pb.addData(kDataBase, packU64(image));

    Label outer = pb.newLabel();
    pb.li(1, kDataBase); // p
    pb.li(2, 0);         // acc
    pb.bind(outer);
    pb.ld(3, 8, 1); // weight
    // Per-node cost computation (real mcf does arc-cost arithmetic
    // between dereferences; keeps IPC in the realistic ~0.05-0.1 band).
    pb.add(2, 2, 3);
    pb.slli(4, 3, 2);
    pb.add(4, 4, 3);
    pb.srli(5, 2, 7);
    pb.xor_(2, 2, 5);
    pb.sub(4, 4, 2);
    pb.and_(2, 2, 4);
    pb.ld(1, 0, 1); // p = p->next
    pb.j(outer);
    return pb.finish();
}

/** gap: permutation gather acc += *perm[i] — irregular but MLP-rich. */
Program
buildGap(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "gap");
    std::uint64_t n = std::uint64_t(1)
                      << floorLog2(params.workingSetBytes / 8);
    Rng rng(params.seed + 1);

    std::vector<std::uint64_t> perm(n);
    for (std::uint64_t i = 0; i < n; ++i)
        perm[i] = kDataBase + rng.below(n) * 8;
    pb.addData(kDataBase + n * 8, packU64(perm));

    Label outer = pb.newLabel(), inner = pb.newLabel();
    pb.li(1, std::int64_t(kDataBase + n * 8)); // perm base
    pb.li(4, std::int64_t(n));
    pb.bind(outer);
    pb.li(2, 0); // i
    pb.bind(inner);
    pb.slli(5, 2, 3);
    pb.add(5, 5, 1);
    pb.ld(6, 0, 5); // addr = perm[i]
    pb.ld(7, 0, 6); // a[perm[i]]
    pb.add(8, 8, 7);
    pb.addi(2, 2, 1);
    pb.blt(2, 4, inner);
    pb.j(outer);
    return pb.finish();
}

/** parser: hash-table probe chains — dependent index arithmetic. */
Program
buildParser(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "parser");
    std::uint64_t n = std::uint64_t(1)
                      << floorLog2(params.workingSetBytes / 8);
    Rng rng(params.seed + 2);
    std::vector<std::uint64_t> table(n);
    for (std::uint64_t i = 0; i < n; ++i)
        table[i] = rng.next();
    pb.addData(kDataBase, packU64(table));

    Label outer = pb.newLabel();
    pb.li(1, kDataBase);
    pb.li(2, std::int64_t((n - 1) * 8)); // byte mask for index*8
    pb.li(3, 0x12345677);                // running hash state
    pb.li(9, 0);                         // acc
    pb.bind(outer);
    emitXorshift(pb, 3, 10);
    pb.slli(4, 3, 3);
    pb.and_(4, 4, 2);
    pb.add(4, 4, 1);
    pb.ld(5, 0, 4); // first probe
    pb.slli(6, 5, 3);
    pb.and_(6, 6, 2);
    pb.add(6, 6, 1);
    pb.ld(7, 0, 6); // chained probe (dependent load)
    pb.add(9, 9, 7);
    pb.j(outer);
    return pb.finish();
}

/** vortex: object-table indirection with field reads and a write. */
Program
buildVortex(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "vortex");
    std::uint64_t objects = std::uint64_t(1)
                            << floorLog2(params.workingSetBytes / 128);
    Rng rng(params.seed + 3);

    Addr obj_base = kDataBase;
    Addr table_base = kDataBase + objects * 128;
    std::vector<std::uint64_t> table(objects);
    for (std::uint64_t i = 0; i < objects; ++i)
        table[i] = obj_base + rng.below(objects) * 128;
    pb.addData(table_base, packU64(table));

    Label outer = pb.newLabel(), inner = pb.newLabel();
    pb.li(1, std::int64_t(table_base));
    pb.li(2, std::int64_t(objects));
    pb.bind(outer);
    pb.li(3, 0); // i
    pb.bind(inner);
    pb.slli(4, 3, 3);
    pb.add(4, 4, 1);
    pb.ld(5, 0, 4);  // obj = table[i]
    pb.ld(6, 0, 5);  // field 0
    pb.ld(7, 8, 5);  // field 1
    pb.add(6, 6, 7);
    pb.sd(6, 16, 5); // field 2 = f0 + f1
    pb.addi(3, 3, 1);
    pb.blt(3, 2, inner);
    pb.j(outer);
    return pb.finish();
}

/** twolf: random reads with conditional swaps (unpredictable branch). */
Program
buildTwolf(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "twolf");
    std::uint64_t n = std::uint64_t(1)
                      << floorLog2(params.workingSetBytes / 8);
    Rng rng(params.seed + 4);
    std::vector<std::uint64_t> cells(n);
    for (std::uint64_t i = 0; i < n; ++i)
        cells[i] = rng.next() & 0xffffff;
    pb.addData(kDataBase, packU64(cells));

    Label outer = pb.newLabel(), noswap = pb.newLabel();
    pb.li(1, kDataBase);
    pb.li(2, std::int64_t((n - 1) * 8));
    pb.li(3, 0x2545f4914f6cdd1dULL); // rng state
    pb.bind(outer);
    emitXorshift(pb, 3, 10);
    pb.slli(4, 3, 3);
    pb.and_(4, 4, 2);
    pb.add(4, 4, 1); // &A[i]
    emitXorshift(pb, 3, 10);
    pb.slli(5, 3, 3);
    pb.and_(5, 5, 2);
    pb.add(5, 5, 1); // &A[j]
    pb.ld(6, 0, 4);
    pb.ld(7, 0, 5);
    pb.bge(7, 6, noswap); // data-dependent branch
    pb.sd(7, 0, 4);
    pb.sd(6, 0, 5);
    pb.bind(noswap);
    pb.j(outer);
    return pb.finish();
}

/** vpr: random-walk cost evaluation over a grid with neighbours. */
Program
buildVpr(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "vpr");
    std::uint64_t n = std::uint64_t(1)
                      << floorLog2(params.workingSetBytes / 8);
    Rng rng(params.seed + 5);
    std::vector<std::uint64_t> grid(n);
    for (std::uint64_t i = 0; i < n; ++i)
        grid[i] = rng.below(4096);
    pb.addData(kDataBase, packU64(grid));
    std::int64_t row_off = std::int64_t(
        std::min<std::uint64_t>(1 << 8, n / 2) * 8); // "south" offset

    Label outer = pb.newLabel(), reject = pb.newLabel();
    pb.li(1, kDataBase);
    // Mask keeps i*8 inside [0, n-row-2) so neighbours stay in range.
    pb.li(2, std::int64_t((n / 2 - 1) * 8));
    pb.li(3, 0xb5297a4d2f3c9e71ULL);
    pb.li(9, 0); // cost
    pb.bind(outer);
    emitXorshift(pb, 3, 10);
    pb.slli(4, 3, 3);
    pb.and_(4, 4, 2);
    pb.add(4, 4, 1);
    pb.ld(5, 0, 4);       // cell
    pb.ld(6, 8, 4);       // east neighbour
    pb.add(5, 5, 6);
    pb.ld(8, row_off, 4); // south neighbour
    pb.add(5, 5, 8);
    pb.blt(5, 9, reject); // data-dependent accept/reject
    pb.add(9, 9, 5);
    pb.bind(reject);
    pb.srai(9, 9, 1);
    pb.j(outer);
    return pb.finish();
}

/** gcc: branchy byte-ladder state machine over a large text. */
Program
buildGcc(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "gcc");
    std::uint64_t n = std::uint64_t(1) << floorLog2(params.workingSetBytes);
    Rng rng(params.seed + 6);
    std::vector<std::uint8_t> text(n);
    for (auto &byte : text)
        byte = std::uint8_t(rng.below(96) + 32);
    pb.addData(kDataBase, std::move(text));

    Label outer = pb.newLabel(), inner = pb.newLabel();
    Label c1 = pb.newLabel(), c2 = pb.newLabel(), c3 = pb.newLabel(),
          step = pb.newLabel();
    pb.li(1, kDataBase);
    pb.li(2, std::int64_t(n - 8));
    pb.li(9, 0); // state
    pb.bind(outer);
    pb.li(3, 0); // i
    pb.bind(inner);
    pb.add(4, 1, 3);
    pb.lb(5, 0, 4);
    pb.andi(5, 5, 0xff);
    pb.slti(6, 5, 64);
    pb.bne(6, 0, c1);
    pb.slti(6, 5, 96);
    pb.bne(6, 0, c2);
    pb.j(c3);
    pb.bind(c1);
    pb.addi(9, 9, 1);
    pb.j(step);
    pb.bind(c2);
    pb.xori(9, 9, 0x55);
    pb.j(step);
    pb.bind(c3);
    pb.slli(9, 9, 1);
    pb.bind(step);
    pb.addi(3, 3, 7); // stride 7: line-crossing byte accesses
    pb.blt(3, 2, inner);
    pb.j(outer);
    return pb.finish();
}

/** bzip2: run-length scan with sequential output writes. */
Program
buildBzip2(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "bzip2");
    std::uint64_t n = std::uint64_t(1)
                      << floorLog2(params.workingSetBytes / 2);
    Rng rng(params.seed + 7);
    std::vector<std::uint8_t> input(n);
    for (std::uint64_t i = 0; i < n;) {
        std::uint8_t byte_val = std::uint8_t(rng.below(8));
        std::uint64_t run = 1 + rng.below(12);
        for (std::uint64_t k = 0; k < run && i < n; ++k, ++i)
            input[i] = byte_val;
    }
    pb.addData(kDataBase, std::move(input));
    Addr out_base = kDataBase + n;

    Label outer = pb.newLabel(), inner = pb.newLabel(),
          cont = pb.newLabel();
    pb.li(1, kDataBase);
    pb.li(2, std::int64_t(n));
    pb.li(11, std::int64_t(out_base));
    pb.bind(outer);
    pb.li(3, 0);  // i
    pb.li(4, -1); // current byte
    pb.li(5, 0);  // run length
    pb.li(12, 0); // out index
    pb.bind(inner);
    pb.add(6, 1, 3);
    pb.lb(7, 0, 6);
    pb.andi(7, 7, 0xff);
    pb.beq(7, 4, cont);
    pb.add(8, 11, 12); // emit previous run length
    pb.sb(5, 0, 8);
    pb.addi(12, 12, 1);
    pb.mv(4, 7);
    pb.li(5, 0);
    pb.bind(cont);
    pb.addi(5, 5, 1);
    pb.addi(3, 3, 1);
    pb.blt(3, 2, inner);
    pb.j(outer);
    return pb.finish();
}

/** gzip: sliding-window back-reference search at three distances. */
Program
buildGzip(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "gzip");
    std::uint64_t n = std::uint64_t(1) << floorLog2(params.workingSetBytes);
    Rng rng(params.seed + 8);
    std::vector<std::uint8_t> input(n);
    for (auto &byte : input)
        byte = std::uint8_t(rng.below(16));
    pb.addData(kDataBase, std::move(input));

    Label outer = pb.newLabel(), inner = pb.newLabel();
    Label hit1 = pb.newLabel(), merge = pb.newLabel();
    pb.li(1, kDataBase);
    pb.li(2, std::int64_t(n));
    pb.li(9, 0); // matches
    pb.bind(outer);
    pb.li(3, 4096); // pos
    pb.bind(inner);
    pb.add(4, 1, 3);
    pb.lb(5, 0, 4);
    pb.lb(6, -1, 4); // distance 1
    pb.beq(5, 6, hit1);
    pb.lb(6, -257, 4); // distance 257
    pb.beq(5, 6, hit1);
    pb.lb(6, -4093, 4); // distance 4093
    pb.beq(5, 6, hit1);
    pb.j(merge);
    pb.bind(hit1);
    pb.addi(9, 9, 1);
    pb.bind(merge);
    pb.addi(3, 3, 11);
    pb.blt(3, 2, inner);
    pb.j(outer);
    return pb.finish();
}

// =====================================================================
// FP workloads
// =====================================================================

/** Shared FP array initializer. */
std::vector<std::uint8_t>
fpGrid(std::uint64_t elems, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> grid(elems);
    for (auto &cell : grid)
        cell = rng.real() * 2.0 - 1.0;
    return packF64(grid);
}

/** swim: 2D 5-point stencil sweep (streaming FP, row±1 reuse). */
Program
buildSwim(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "swim");
    std::uint64_t elems = std::uint64_t(1)
                          << floorLog2(params.workingSetBytes / 16);
    std::uint64_t side = std::uint64_t(1) << (floorLog2(elems) / 2);
    elems = side * side;
    pb.addData(kDataBase, fpGrid(elems, params.seed + 9));
    Addr dst = kDataBase + elems * 8;
    std::int64_t row_bytes = std::int64_t(side * 8);

    Label outer = pb.newLabel(), inner = pb.newLabel();
    pb.li(1, kDataBase);
    pb.li(2, std::int64_t(dst));
    pb.li(3, std::int64_t((elems - side - 1) * 8)); // last safe offset
    pb.lid(20, 0.2);
    pb.bind(outer);
    pb.li(4, row_bytes + 8); // first interior element
    pb.bind(inner);
    pb.add(5, 1, 4);
    pb.ld(6, 0, 5);
    pb.ld(7, -8, 5);
    pb.ld(8, 8, 5);
    pb.ld(9, -row_bytes, 5);
    pb.ld(10, row_bytes, 5);
    pb.fadd(6, 6, 7);
    pb.fadd(6, 6, 8);
    pb.fadd(6, 6, 9);
    pb.fadd(6, 6, 10);
    pb.fmul(6, 6, 20);
    pb.add(11, 2, 4);
    pb.sd(6, 0, 11);
    pb.addi(4, 4, 8);
    pb.blt(4, 3, inner);
    pb.j(outer);
    return pb.finish();
}

/** mgrid: 3D 7-point stencil (large plane strides). */
Program
buildMgrid(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "mgrid");
    std::uint64_t elems = std::uint64_t(1)
                          << floorLog2(params.workingSetBytes / 16);
    std::uint64_t side = std::uint64_t(1) << (floorLog2(elems) / 3);
    elems = side * side * side;
    pb.addData(kDataBase, fpGrid(elems, params.seed + 10));
    Addr dst = kDataBase + elems * 8;
    std::int64_t row = std::int64_t(side * 8);
    std::int64_t plane = std::int64_t(side * side * 8);

    // From a 64-element side (4 MiB) up, +plane no longer fits a
    // load's imm16 offset: form those two addresses with a register
    // add instead (r16 = plane). Smaller sets keep the immediates.
    const bool plane_imm = plane <= INT16_MAX;

    Label outer = pb.newLabel(), inner = pb.newLabel();
    pb.li(1, kDataBase);
    pb.li(2, std::int64_t(dst));
    pb.li(3, std::int64_t(std::int64_t(elems * 8) - plane - row - 8));
    if (!plane_imm)
        pb.li(16, plane);
    pb.lid(20, 1.0 / 7.0);
    pb.bind(outer);
    pb.li(4, plane + row + 8);
    pb.bind(inner);
    pb.add(5, 1, 4);
    pb.ld(6, 0, 5);
    pb.ld(7, -8, 5);
    pb.ld(8, 8, 5);
    pb.ld(9, -row, 5);
    pb.ld(10, row, 5);
    if (plane_imm) {
        pb.ld(11, -plane, 5);
        pb.ld(12, plane, 5);
    } else {
        pb.sub(14, 5, 16);
        pb.ld(11, 0, 14);
        pb.add(14, 5, 16);
        pb.ld(12, 0, 14);
    }
    pb.fadd(6, 6, 7);
    pb.fadd(6, 6, 8);
    pb.fadd(6, 6, 9);
    pb.fadd(6, 6, 10);
    pb.fadd(6, 6, 11);
    pb.fadd(6, 6, 12);
    pb.fmul(6, 6, 20);
    pb.add(13, 2, 4);
    pb.sd(6, 0, 13);
    pb.addi(4, 4, 8);
    pb.blt(4, 3, inner);
    pb.j(outer);
    return pb.finish();
}

/** applu: blocked in-place relaxation sweep. */
Program
buildApplu(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "applu");
    std::uint64_t elems = std::uint64_t(1)
                          << floorLog2(params.workingSetBytes / 8);
    pb.addData(kDataBase, fpGrid(elems, params.seed + 11));

    Label outer = pb.newLabel(), inner = pb.newLabel();
    pb.li(1, kDataBase);
    pb.li(3, std::int64_t((elems - 9) * 8));
    pb.lid(20, 0.75);
    pb.lid(21, 0.25);
    pb.bind(outer);
    pb.li(4, 0);
    pb.bind(inner);
    pb.add(5, 1, 4);
    pb.ld(6, 0, 5);
    pb.ld(7, 8, 5);
    pb.ld(8, 64, 5);
    pb.fmul(6, 6, 20);
    pb.fmul(7, 7, 21);
    pb.fadd(6, 6, 7);
    pb.fadd(6, 6, 8);
    pb.sd(6, 0, 5);
    pb.addi(4, 4, 8);
    pb.blt(4, 3, inner);
    pb.j(outer);
    return pb.finish();
}

/** art: streaming weight x input dot products (pure bandwidth). */
Program
buildArt(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "art");
    std::uint64_t elems = std::uint64_t(1)
                          << floorLog2(params.workingSetBytes / 8);
    pb.addData(kDataBase, fpGrid(elems, params.seed + 12));
    std::uint64_t x_elems = 1024;
    pb.addData(kDataBase + elems * 8, fpGrid(x_elems, params.seed + 112));

    Label outer = pb.newLabel(), inner = pb.newLabel();
    pb.li(1, kDataBase);
    pb.li(2, std::int64_t(kDataBase + elems * 8));
    pb.li(3, std::int64_t(elems * 8));
    pb.li(12, std::int64_t((x_elems - 1) * 8));
    pb.bind(outer);
    pb.li(4, 0);
    pb.lid(9, 0.0);
    pb.bind(inner);
    pb.add(5, 1, 4);
    pb.ld(6, 0, 5); // weight (streamed, misses)
    pb.and_(7, 4, 12);
    pb.add(7, 7, 2);
    pb.ld(8, 0, 7); // input (hot)
    pb.fmul(6, 6, 8);
    pb.fadd(9, 9, 6);
    pb.addi(4, 4, 8);
    pb.blt(4, 3, inner);
    pb.j(outer);
    return pb.finish();
}

/** equake: CSR sparse matrix-vector product (indexed gathers). */
Program
buildEquake(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "equake");
    std::uint64_t x_elems = std::uint64_t(1)
                            << floorLog2(params.workingSetBytes / 8);
    std::uint64_t nnz = x_elems / 2;
    Rng rng(params.seed + 13);

    Addr x_base = kDataBase;
    Addr col_base = x_base + x_elems * 8;
    Addr val_base = col_base + nnz * 8;
    pb.addData(x_base, fpGrid(x_elems, params.seed + 14));
    std::vector<std::uint64_t> cols(nnz);
    for (auto &col : cols)
        col = x_base + rng.below(x_elems) * 8;
    pb.addData(col_base, packU64(cols));
    pb.addData(val_base, fpGrid(nnz, params.seed + 15));

    Label outer = pb.newLabel(), inner = pb.newLabel();
    pb.li(1, std::int64_t(col_base));
    pb.li(2, std::int64_t(val_base));
    pb.li(3, std::int64_t(nnz * 8));
    pb.bind(outer);
    pb.li(4, 0);
    pb.lid(9, 0.0);
    pb.bind(inner);
    pb.add(5, 1, 4);
    pb.ld(6, 0, 5);  // column address
    pb.ld(7, 0, 6);  // x[col]  (gather)
    pb.add(8, 2, 4);
    pb.ld(10, 0, 8); // val
    pb.fmul(7, 7, 10);
    pb.fadd(9, 9, 7);
    pb.addi(4, 4, 8);
    pb.blt(4, 3, inner);
    pb.j(outer);
    return pb.finish();
}

/** ammp: neighbour-list pairwise force accumulation. */
Program
buildAmmp(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "ammp");
    std::uint64_t atoms = std::uint64_t(1)
                          << floorLog2(params.workingSetBytes / 16);
    Rng rng(params.seed + 16);
    Addr pos_base = kDataBase;
    Addr nb_base = pos_base + atoms * 8;
    pb.addData(pos_base, fpGrid(atoms, params.seed + 17));
    std::vector<std::uint64_t> neighbours(atoms);
    for (auto &nb : neighbours)
        nb = pos_base + rng.below(atoms) * 8;
    pb.addData(nb_base, packU64(neighbours));

    Label outer = pb.newLabel(), inner = pb.newLabel();
    pb.li(1, std::int64_t(pos_base));
    pb.li(2, std::int64_t(nb_base));
    pb.li(3, std::int64_t(atoms * 8));
    pb.bind(outer);
    pb.li(4, 0);
    pb.lid(9, 0.0); // energy
    pb.bind(inner);
    pb.add(5, 1, 4);
    pb.ld(6, 0, 5);   // x_i
    pb.add(7, 2, 4);
    pb.ld(8, 0, 7);   // neighbour address
    pb.ld(10, 0, 8);  // x_j (gather)
    pb.fsub(6, 6, 10);
    pb.fmul(6, 6, 6); // dx^2
    pb.fadd(9, 9, 6);
    pb.addi(4, 4, 8);
    pb.blt(4, 3, inner);
    pb.j(outer);
    return pb.finish();
}

/** apsi: alternating sweeps with periodic division. */
Program
buildApsi(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "apsi");
    std::uint64_t elems = std::uint64_t(1)
                          << floorLog2(params.workingSetBytes / 8);
    pb.addData(kDataBase, fpGrid(elems, params.seed + 18));

    Label outer = pb.newLabel(), inner = pb.newLabel(),
          nodiv = pb.newLabel();
    pb.li(1, kDataBase);
    pb.li(3, std::int64_t((elems - 2) * 8));
    pb.lid(20, 1.0001);
    pb.lid(21, 3.14159);
    pb.bind(outer);
    pb.li(4, 0);
    pb.li(12, 0);
    pb.bind(inner);
    pb.add(5, 1, 4);
    pb.ld(6, 0, 5);
    pb.ld(7, 8, 5);
    pb.fmul(6, 6, 20);
    pb.fadd(6, 6, 7);
    pb.andi(13, 12, 15);
    pb.bne(13, 0, nodiv);
    pb.fdiv(6, 6, 21); // every 16th element: expensive divide
    pb.bind(nodiv);
    pb.sd(6, 0, 5);
    pb.addi(4, 4, 8);
    pb.addi(12, 12, 1);
    pb.blt(4, 3, inner);
    pb.j(outer);
    return pb.finish();
}

/** lucas: strided butterfly passes (FFT-like power-of-two strides). */
Program
buildLucas(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "lucas");
    std::uint64_t elems = std::uint64_t(1)
                          << floorLog2(params.workingSetBytes / 8);
    pb.addData(kDataBase, fpGrid(elems, params.seed + 19));

    // Blocked butterfly passes (the real FFT structure): for each
    // stride s, every 2s-byte block pairs its contiguous lower half
    // with its upper half — full-array coverage per pass with
    // sequential locality inside blocks.
    Label outer = pb.newLabel(), stride_loop = pb.newLabel(),
          block_loop = pb.newLabel(), inner = pb.newLabel();
    pb.li(1, kDataBase);
    pb.li(2, std::int64_t(elems * 8)); // total bytes
    std::int64_t stride_cap =
        std::min<std::int64_t>(std::int64_t(elems * 8) / 2, 16384);
    pb.li(15, stride_cap);
    pb.bind(outer);
    pb.li(3, 64); // stride in bytes, doubles every pass
    pb.bind(stride_loop);
    pb.li(4, 0);  // block base offset
    pb.bind(block_loop);
    pb.li(5, 0);  // j within the block's lower half
    pb.bind(inner);
    pb.add(6, 1, 4);
    pb.add(6, 6, 5);   // &A[base + j]
    pb.add(8, 6, 3);   // &A[base + j + s]
    pb.ld(7, 0, 6);
    pb.ld(9, 0, 8);
    pb.fadd(10, 7, 9); // butterfly
    pb.fsub(11, 7, 9);
    pb.sd(10, 0, 6);
    pb.sd(11, 0, 8);
    pb.addi(5, 5, 8);
    pb.blt(5, 3, inner);
    pb.slli(12, 3, 1);
    pb.add(4, 4, 12);  // base += 2s
    pb.blt(4, 2, block_loop);
    pb.slli(3, 3, 1);
    pb.blt(3, 15, stride_loop);
    pb.j(outer);
    return pb.finish();
}

/** wupwise: blocked dense matrix-vector products. */
Program
buildWupwise(const WorkloadParams &params)
{
    ProgramBuilder pb(kCodeBase, "wupwise");
    std::uint64_t elems = std::uint64_t(1)
                          << floorLog2(params.workingSetBytes / 8);
    std::uint64_t cols = 512;
    std::uint64_t rows = elems / cols;
    pb.addData(kDataBase, fpGrid(elems, params.seed + 20));
    Addr x_base = kDataBase + elems * 8;
    Addr y_base = x_base + cols * 8;
    pb.addData(x_base, fpGrid(cols, params.seed + 21));

    Label outer = pb.newLabel(), row_loop = pb.newLabel(),
          col_loop = pb.newLabel();
    pb.li(1, kDataBase);
    pb.li(2, std::int64_t(x_base));
    pb.li(3, std::int64_t(y_base));
    pb.li(4, std::int64_t(rows));
    pb.li(5, std::int64_t(cols * 8));
    pb.bind(outer);
    pb.li(6, 0); // row
    pb.bind(row_loop);
    pb.mul(7, 6, 5);
    pb.add(7, 7, 1); // row base
    pb.li(8, 0);     // col offset
    pb.lid(9, 0.0);
    pb.bind(col_loop);
    pb.add(10, 7, 8);
    pb.ld(11, 0, 10); // M[r][c]  (streamed)
    pb.add(12, 2, 8);
    pb.ld(13, 0, 12); // x[c]     (hot)
    pb.fmul(11, 11, 13);
    pb.fadd(9, 9, 11);
    pb.addi(8, 8, 8);
    pb.blt(8, 5, col_loop);
    pb.slli(14, 6, 3);
    pb.add(14, 14, 3);
    pb.sd(9, 0, 14); // y[r]
    pb.addi(6, 6, 1);
    pb.blt(6, 4, row_loop);
    pb.j(outer);
    return pb.finish();
}

const std::vector<WorkloadInfo> kCatalog = {
    {"bzip2", false, "run-length scan, sequential + output stream"},
    {"gcc", false, "branchy byte-ladder state machine"},
    {"gzip", false, "sliding-window back-reference search"},
    {"mcf", false, "pointer chasing, latency bound"},
    {"parser", false, "hash-table probe chains"},
    {"twolf", false, "random reads with conditional swaps"},
    {"vortex", false, "object-table indirection"},
    {"vpr", false, "random-walk grid cost evaluation"},
    {"gap", false, "permutation gather"},
    {"ammp", true, "neighbour-list force accumulation"},
    {"applu", true, "blocked in-place relaxation"},
    {"apsi", true, "sweeps with periodic division"},
    {"art", true, "streaming dot products"},
    {"equake", true, "CSR sparse matvec gathers"},
    {"lucas", true, "strided butterfly passes"},
    {"mgrid", true, "3D 7-point stencil"},
    {"swim", true, "2D 5-point stencil"},
    {"wupwise", true, "blocked dense matvec"},
};

} // namespace

const std::vector<WorkloadInfo> &
catalog()
{
    return kCatalog;
}

std::vector<std::string>
intNames()
{
    std::vector<std::string> names;
    for (const WorkloadInfo &info : kCatalog)
        if (!info.isFp)
            names.push_back(info.name);
    return names;
}

std::vector<std::string>
fpNames()
{
    std::vector<std::string> names;
    for (const WorkloadInfo &info : kCatalog)
        if (info.isFp)
            names.push_back(info.name);
    return names;
}

std::vector<std::string>
allNames()
{
    std::vector<std::string> names;
    for (const WorkloadInfo &info : kCatalog)
        names.push_back(info.name);
    return names;
}

isa::Program
build(const std::string &name, const WorkloadParams &params)
{
    // mcf takes node indices modulo workingSetBytes / 64: a working
    // set below one line would divide by zero.
    if (params.workingSetBytes < 64)
        acp_fatal("working set of %llu bytes is below one 64-byte line",
                  (unsigned long long)params.workingSetBytes);
    if (name == "mcf") return buildMcf(params);
    if (name == "gap") return buildGap(params);
    if (name == "parser") return buildParser(params);
    if (name == "vortex") return buildVortex(params);
    if (name == "twolf") return buildTwolf(params);
    if (name == "vpr") return buildVpr(params);
    if (name == "gcc") return buildGcc(params);
    if (name == "bzip2") return buildBzip2(params);
    if (name == "gzip") return buildGzip(params);
    if (name == "swim") return buildSwim(params);
    if (name == "mgrid") return buildMgrid(params);
    if (name == "applu") return buildApplu(params);
    if (name == "art") return buildArt(params);
    if (name == "equake") return buildEquake(params);
    if (name == "ammp") return buildAmmp(params);
    if (name == "apsi") return buildApsi(params);
    if (name == "lucas") return buildLucas(params);
    if (name == "wupwise") return buildWupwise(params);
    acp_fatal("unknown workload '%s'", name.c_str());
}

} // namespace acp::workloads
