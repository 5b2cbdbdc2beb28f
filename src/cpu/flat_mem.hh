/**
 * @file
 * Sparse flat plaintext memory used by the standalone functional
 * executor (fast-forward reference and commit-time co-simulation
 * shadow). Independent of the cache hierarchy so the shadow never
 * perturbs timing state.
 */

#ifndef ACP_CPU_FLAT_MEM_HH
#define ACP_CPU_FLAT_MEM_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "isa/program.hh"

namespace acp::cpu
{

/** Page-granular sparse memory. */
class FlatMem
{
  public:
    explicit FlatMem(std::uint64_t size_bytes) : sizeMask_(size_bytes - 1) {}

    std::uint64_t
    read(Addr addr, unsigned bytes)
    {
        std::uint64_t value = 0;
        for (unsigned i = 0; i < bytes; ++i)
            value |= std::uint64_t(byteAt((addr + i) & sizeMask_))
                     << (8 * i);
        return value;
    }

    void
    write(Addr addr, unsigned bytes, std::uint64_t value)
    {
        for (unsigned i = 0; i < bytes; ++i)
            byteAt((addr + i) & sizeMask_) = std::uint8_t(value >> (8 * i));
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
        for (const isa::DataSegment &seg : prog.data) {
            // One page lookup per chunk; a chunk ends at a page end or
            // at the wrap point of the address space.
            std::size_t done = 0;
            while (done < seg.bytes.size()) {
                Addr addr = (seg.base + done) & sizeMask_;
                std::uint64_t page_off = addr & (kPageBytes - 1);
                std::uint64_t n =
                    std::min<std::uint64_t>({seg.bytes.size() - done - 1,
                                             kPageBytes - 1 - page_off,
                                             sizeMask_ - addr}) +
                    1;
                std::memcpy(&byteAt(addr), seg.bytes.data() + done, n);
                done += n;
            }
        }
    }

  private:
    static constexpr unsigned kPageShift = 12;
    static constexpr std::uint64_t kPageBytes = 1ULL << kPageShift;

    std::uint8_t &
    byteAt(Addr addr)
    {
        Addr page = addr >> kPageShift;
        auto it = pages_.find(page);
        if (it == pages_.end())
            it = pages_.emplace(page,
                                std::vector<std::uint8_t>(kPageBytes, 0))
                     .first;
        return it->second[addr & (kPageBytes - 1)];
    }

    std::uint64_t sizeMask_;
    std::unordered_map<Addr, std::vector<std::uint8_t>> pages_;
};

} // namespace acp::cpu

#endif // ACP_CPU_FLAT_MEM_HH
