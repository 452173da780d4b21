/**
 * @file
 * Bounded FIFO used to model finite hardware queues with backpressure.
 */

#ifndef DCL1_MEM_QUEUES_HH
#define DCL1_MEM_QUEUES_HH

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "check/check.hh"
#include "common/log.hh"

namespace dcl1::mem
{

/**
 * A FIFO with a fixed capacity. Producers must check canPush() so that
 * full queues exert backpressure instead of growing.
 */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity = 4) : capacity_(capacity) {}

    bool empty() const { return q_.empty(); }
    bool full() const { return q_.size() >= capacity_; }
    std::size_t size() const { return q_.size(); }
    std::size_t capacity() const { return capacity_; }
    bool canPush() const { return !full(); }

    /** Push; caller must have checked canPush(). */
    void
    push(T v)
    {
        DCL1_ASSERT(!full(),
                    "BoundedQueue: push beyond capacity %zu", capacity_);
        q_.push_back(std::move(v));
    }

    /** Front element; queue must be non-empty. */
    T &front() { return q_.front(); }
    const T &front() const { return q_.front(); }

    /** Pop and return the front element; queue must be non-empty. */
    T
    pop()
    {
        DCL1_ASSERT(!q_.empty(), "BoundedQueue: pop from empty queue");
        T v = std::move(q_.front());
        q_.pop_front();
        return v;
    }

    /** Pop the front element if present. */
    std::optional<T>
    tryPop()
    {
        if (q_.empty())
            return std::nullopt;
        std::optional<T> v(std::move(q_.front()));
        q_.pop_front();
        return v;
    }

    void clear() { q_.clear(); }

  private:
    std::size_t capacity_;
    std::deque<T> q_;
};

} // namespace dcl1::mem

#endif // DCL1_MEM_QUEUES_HH
