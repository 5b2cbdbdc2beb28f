/**
 * @file
 * Sparse page store shared by the two simulated memories: the
 * reference image (cpu::FlatMem, pages of bytes) and the external RAM
 * (secmem::ExternalMemory, pages of line records). Pages are 4 KiB of
 * address space, keyed by page number and created zero-filled on first
 * touch. The store remembers the last page it looked up, so a run of
 * accesses inside one page costs one hash lookup.
 *
 * The remembered page is updated by const lookups too, so one store
 * must not be read from two threads at once; every System owns its
 * memories and runs on one thread.
 */

#ifndef ACP_COMMON_SPARSE_PAGES_HH
#define ACP_COMMON_SPARSE_PAGES_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "common/types.hh"

namespace acp
{

/** log2 of a sparse page's size in address space. */
constexpr unsigned kSparsePageShift = 12;
constexpr Addr kSparsePageBytes = Addr(1) << kSparsePageShift;

/**
 * The range splitter: call @p fn(chunk_addr, done, n) for each chunk
 * of [addr, addr + len), in address order. A chunk holds bytes
 * [done, done + n) of the range and ends at a multiple of
 * @p chunk_bytes (a power of two) or at the end of the range, so a
 * chunk never crosses a page or line of that size.
 */
template <typename Fn>
inline void
forEachChunk(Addr addr, std::size_t len, Addr chunk_bytes, Fn &&fn)
{
    std::size_t done = 0;
    while (done < len) {
        Addr chunk_addr = addr + done;
        std::size_t n = std::size_t(std::min<std::uint64_t>(
            len - done, chunk_bytes - (chunk_addr & (chunk_bytes - 1))));
        fn(chunk_addr, done, n);
        done += n;
    }
}

/** Pages of type @p Page (value-initialized, so zero-filled on first
 *  touch) keyed by page number. */
template <typename Page>
class SparsePages
{
  public:
    /** The page holding byte address @p addr, created on first touch. */
    Page &
    touch(Addr addr)
    {
        Addr num = addr >> kSparsePageShift;
        if (num != lastNum_) {
            last_ = &pages_.try_emplace(num).first->second;
            lastNum_ = num;
        }
        return *last_;
    }

    /** The page holding @p addr, or nullptr if it was never touched. */
    const Page *
    find(Addr addr) const
    {
        Addr num = addr >> kSparsePageShift;
        if (num != lastNum_) {
            auto it = pages_.find(num);
            if (it == pages_.end())
                return nullptr;
            // The page itself is not const: the map owns it.
            last_ = const_cast<Page *>(&it->second);
            lastNum_ = num;
        }
        return last_;
    }

    /** Offset of @p addr within its page. */
    static std::size_t
    offset(Addr addr)
    {
        return std::size_t(addr & (kSparsePageBytes - 1));
    }

  private:
    // Map nodes never move, so the remembered page stays valid as the
    // map grows. No page number has its top bits set: ~0 means none.
    std::unordered_map<Addr, Page> pages_;
    mutable Page *last_ = nullptr;
    mutable Addr lastNum_ = ~Addr(0);
};

} // namespace acp

#endif // ACP_COMMON_SPARSE_PAGES_HH
