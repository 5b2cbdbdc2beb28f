/**
 * @file
 * FIFO ring: the out-of-order core's fetch queue and store buffer, and
 * the authentication engine's request history. Its slots are allocated
 * at construction; a push or a pop moves an index, so a queue that
 * fills and drains every cycle allocates nothing. An owner whose
 * bound is larger than it wants to pay for up front grows the ring on
 * demand (grow()), up to that bound.
 */

#ifndef ACP_COMMON_RING_HH
#define ACP_COMMON_RING_HH

#include <cstddef>
#include <memory>
#include <utility>

#include "common/logging.hh"

namespace acp
{

/** FIFO of at most its capacity. Element i counts from the front (0
 *  is the oldest), so a youngest-first scan runs i = size() - 1 down
 *  to 0. Each slot is one T (a Ring<bool> keeps a byte per element);
 *  slots are default-initialized, so a trivial T's slot is first
 *  written (and its page touched) by the push that hands it out. */
template <typename T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity)
        : slots_(std::make_unique_for_overwrite<T[]>(capacity)),
          capacity_(capacity)
    {
        if (capacity == 0)
            acp_panic("a ring needs at least one slot");
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == capacity_; }

    /** Element @p i from the front; i < size(). */
    T &operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }
    const T &
    operator[](std::size_t i) const
    {
        return slots_[wrap(head_ + i)];
    }

    /** The oldest element; the ring must not be empty. */
    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }

    /** The youngest element; the ring must not be empty. */
    const T &back() const { return (*this)[size_ - 1]; }

    /** Append a value-initialized element and return it, for the
     *  caller to write in place. Panics when the ring is full. */
    T &
    push_back()
    {
        if (full())
            acp_panic("push to a full ring of %zu", capacity_);
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

    /** Move the elements, in order, into @p capacity fresh slots. One
     *  allocation; the capacity must hold every element. */
    void
    grow(std::size_t capacity)
    {
        if (capacity < size_ || capacity == 0)
            acp_panic("a ring of %zu cannot shrink to %zu", size_, capacity);
        std::unique_ptr<T[]> slots =
            std::make_unique_for_overwrite<T[]>(capacity);
        for (std::size_t i = 0; i < size_; ++i)
            slots[i] = std::move((*this)[i]);
        slots_ = std::move(slots);
        capacity_ = capacity;
        head_ = 0;
    }

  private:
    /** @p i modulo the capacity, for i below twice the capacity. */
    std::size_t
    wrap(std::size_t i) const
    {
        return i < capacity_ ? i : i - capacity_;
    }

    std::unique_ptr<T[]> slots_;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace acp

#endif // ACP_COMMON_RING_HH
