/**
 * @file
 * A FIFO over one ring of slots that only grows.
 *
 * std::deque frees a block each time its front crosses one and
 * allocates one each time its back does, so a queue that never holds
 * more than a few elements still allocates every few pushes. A
 * RingQueue allocates only when it outgrows its peak length, so the
 * NIC's and the switch's packet queues cost nothing in steady state.
 */

#ifndef FIRESIM_BASE_RING_QUEUE_HH
#define FIRESIM_BASE_RING_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace firesim
{

template <typename T>
class RingQueue
{
  public:
    bool empty() const { return count == 0; }
    size_t size() const { return count; }

    /** Element @p i from the front. */
    T &operator[](size_t i) { return slots[(head + i) & (slots.size() - 1)]; }
    const T &
    operator[](size_t i) const
    {
        return slots[(head + i) & (slots.size() - 1)];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }

    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (count == slots.size())
            grow();
        T &slot = (*this)[count++];
        slot = T(std::forward<Args>(args)...);
        return slot;
    }

    void push_back(T value) { emplace_back(std::move(value)); }

    /** Drop the front element (its slot is reset, releasing what it
     *  owned). */
    void
    pop_front()
    {
        FS_ASSERT(count > 0, "pop_front on an empty RingQueue");
        slots[head] = T();
        head = (head + 1) & (slots.size() - 1);
        --count;
    }

    /** Insert @p value before element @p pos (0 = the front). */
    void
    insert(size_t pos, T value)
    {
        FS_ASSERT(pos <= count, "insert at %zu past size %zu", pos, count);
        emplace_back(std::move(value));
        for (size_t i = count - 1; i > pos; --i)
            std::swap((*this)[i], (*this)[i - 1]);
    }

    void
    clear()
    {
        while (count > 0)
            pop_front();
    }

    /** Front-to-back iteration, for range-for over a const queue. */
    class const_iterator
    {
      public:
        const_iterator(const RingQueue *q, size_t i) : q(q), i(i) {}
        const T &operator*() const { return (*q)[i]; }
        const_iterator &
        operator++()
        {
            ++i;
            return *this;
        }
        bool operator!=(const const_iterator &o) const { return i != o.i; }

      private:
        const RingQueue *q;
        size_t i;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count}; }

  private:
    /** Double the ring (power-of-two sizes keep indexing a mask). */
    void
    grow()
    {
        std::vector<T> bigger(slots.empty() ? 8 : slots.size() * 2);
        for (size_t i = 0; i < count; ++i)
            bigger[i] = std::move((*this)[i]);
        slots.swap(bigger);
        head = 0;
    }

    std::vector<T> slots;
    size_t head = 0;
    size_t count = 0;
};

} // namespace firesim

#endif // FIRESIM_BASE_RING_QUEUE_HH
