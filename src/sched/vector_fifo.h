// First-in first-out queue on one std::vector.
//
// The transports keep a short FIFO per message (Homa's pending resend
// ranges, pHost's unused tokens). Most messages never put anything in it,
// and std::deque allocates a map and a node even when default-constructed
// or moved, so a deque per message costs two allocations per copy of the
// message state. This queue allocates nothing until the first push, and
// moving it only hands over the vector's buffer.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace homa {

/// Vector-backed FIFO: pops advance a head index, and the popped prefix
/// is reclaimed when the queue empties or, on a push, once it is at least
/// half the entries held. Push and pop are amortized O(1).
template <typename T>
class VectorFifo {
public:
    bool empty() const { return head_ == items_.size(); }
    size_t size() const { return items_.size() - head_; }

    T& front() { return items_[head_]; }
    const T& front() const { return items_[head_]; }

    template <typename... Args>
    void emplace_back(Args&&... args) {
        if (head_ > 0 && head_ * 2 >= items_.size()) {
            items_.erase(items_.begin(),
                         items_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
        items_.emplace_back(std::forward<Args>(args)...);
    }

    void pop_front() {
        if (++head_ == items_.size()) {
            items_.clear();  // keeps the capacity for the next burst
            head_ = 0;
        }
    }

private:
    std::vector<T> items_;
    size_t head_ = 0;
};

}  // namespace homa
