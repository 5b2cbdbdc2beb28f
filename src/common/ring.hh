/**
 * @file
 * Fixed-capacity FIFO ring: the out-of-order core's fetch queue and
 * store buffer. Its slots are allocated once, at construction; a push
 * or a pop moves an index, so a queue that fills and drains every
 * cycle allocates nothing.
 */

#ifndef ACP_COMMON_RING_HH
#define ACP_COMMON_RING_HH

#include <cstddef>
#include <vector>

#include "common/logging.hh"

namespace acp
{

/** FIFO of at most the capacity it is built with. Element i counts
 *  from the front (0 is the oldest), so a youngest-first scan runs
 *  i = size() - 1 down to 0. */
template <typename T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity) : slots_(capacity)
    {
        if (capacity == 0)
            acp_panic("a ring needs at least one slot");
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == slots_.size(); }

    /** Element @p i from the front; i < size(). */
    T &operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }

    /** The oldest element; the ring must not be empty. */
    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }

    /** Append a value-initialized element and return it, for the
     *  caller to write in place. Panics when the ring is full. */
    T &
    push_back()
    {
        if (full())
            acp_panic("push to a full ring of %zu", slots_.size());
        T &slot = slots_[wrap(head_ + size_)];
        ++size_;
        slot = T{};
        return slot;
    }

    /** Drop the oldest element; the ring must not be empty. */
    void
    pop_front()
    {
        head_ = wrap(head_ + 1);
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    /** @p i modulo the capacity, for i below twice the capacity. */
    std::size_t
    wrap(std::size_t i) const
    {
        return i < slots_.size() ? i : i - slots_.size();
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace acp

#endif // ACP_COMMON_RING_HH
