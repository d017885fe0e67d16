// The receiver's memory of recently completed messages: a duplicate DATA
// packet (a retransmitted tail) for an id in the window is dropped rather
// than reopening a finished message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/packet.h"

namespace homa {

/// The ids of the last kCapacity completions, from any sender. A ring keeps
/// them in completion order; an open-addressing hash table (linear probing,
/// backward-shift delete) answers membership. Both grow with occupancy, so
/// a host that completes few messages holds little memory. Every MsgId is
/// valid, 0 included, so slot occupancy is stored apart from the key.
///
/// The semantics are those of a set plus a FIFO: note() of an id already
/// present queues it again, and evicting either copy forgets it.
class CompletedWindow {
public:
    static constexpr size_t kCapacity = 8192;

    bool contains(MsgId id) const;
    void note(MsgId id);

    size_t size() const { return count_; }

private:
    size_t home(MsgId id) const {
        return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    /// Slot holding `id`, or the empty slot where its probe ends.
    size_t probe(MsgId id) const;
    void insert(MsgId id);
    void erase(MsgId id);
    void grow();

    std::vector<MsgId> ring_;  // completion order, oldest at head_ once full
    size_t head_ = 0;

    std::vector<MsgId> keys_;
    std::vector<uint8_t> used_;
    size_t count_ = 0;
    int shift_ = 0;  // 64 - log2(slots): home() keeps the hash's top bits
};

}  // namespace homa
