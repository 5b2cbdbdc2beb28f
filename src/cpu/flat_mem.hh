/**
 * @file
 * Sparse flat plaintext memory used by the standalone functional
 * executor (fast-forward reference and commit-time co-simulation
 * shadow). Independent of the cache hierarchy so the shadow never
 * perturbs timing state.
 *
 * The image is kept as 4 KiB pages of bytes in a SparsePages store.
 * Addresses wrap at the end of the (power-of-two) address space, and
 * an access takes one page lookup per chunk: one unless it crosses a
 * page or the wrap point.
 */

#ifndef ACP_CPU_FLAT_MEM_HH
#define ACP_CPU_FLAT_MEM_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "common/sparse_pages.hh"
#include "common/types.hh"
#include "isa/program.hh"

namespace acp::cpu
{

/** Page-granular sparse memory. */
class FlatMem
{
  public:
    explicit FlatMem(std::uint64_t size_bytes)
        : sizeMask_(size_bytes - 1),
          chunkBytes_(std::min<std::uint64_t>(size_bytes, kSparsePageBytes))
    {
    }

    std::uint64_t
    read(Addr addr, unsigned bytes)
    {
        std::uint64_t value = 0;
        forEachSpan(addr, bytes,
                    [&](std::uint8_t *p, std::size_t done, std::size_t n) {
                        for (std::size_t i = 0; i < n; ++i)
                            value |= std::uint64_t(p[i]) << (8 * (done + i));
                    });
        return value;
    }

    void
    write(Addr addr, unsigned bytes, std::uint64_t value)
    {
        forEachSpan(addr, bytes,
                    [&](std::uint8_t *p, std::size_t done, std::size_t n) {
                        for (std::size_t i = 0; i < n; ++i)
                            p[i] = std::uint8_t(value >> (8 * (done + i)));
                    });
    }

    std::uint32_t
    fetch(Addr pc)
    {
        return std::uint32_t(read(pc, 4));
    }

    /** Copy a program's code and data segments in; a later segment
     *  overwrites an earlier one where they overlap. */
    void
    loadProgram(const isa::Program &prog)
    {
        for (std::size_t i = 0; i < prog.code.size(); ++i)
            write(prog.codeBase + 4 * i, 4, prog.code[i]);
        for (const isa::DataSegment &seg : prog.data)
            forEachSpan(seg.base, seg.bytes.size(),
                        [&](std::uint8_t *p, std::size_t done, std::size_t n) {
                            std::memcpy(p, seg.bytes.data() + done, n);
                        });
    }

  private:
    using Page = std::array<std::uint8_t, kSparsePageBytes>;

    /**
     * Call @p fn(bytes, done, n) on the image memory behind each chunk
     * of [addr, addr + len). A chunk ends at a page end or at the wrap
     * point: chunkBytes_ divides both, because the memory size and the
     * page size are powers of two.
     */
    template <typename Fn>
    void
    forEachSpan(Addr addr, std::size_t len, Fn &&fn)
    {
        forEachChunk(addr, len, chunkBytes_,
                     [&](Addr chunk_addr, std::size_t done, std::size_t n) {
                         Addr a = chunk_addr & sizeMask_;
                         fn(pages_.touch(a).data() + pages_.offset(a), done,
                            n);
                     });
    }

    std::uint64_t sizeMask_;
    std::uint64_t chunkBytes_;
    SparsePages<Page> pages_;
};

} // namespace acp::cpu

#endif // ACP_CPU_FLAT_MEM_HH
