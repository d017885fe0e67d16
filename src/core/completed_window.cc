#include "core/completed_window.h"

#include <bit>
#include <utility>

namespace homa {

size_t CompletedWindow::probe(MsgId id) const {
    const size_t mask = keys_.size() - 1;
    size_t i = home(id);
    while (used_[i] && keys_[i] != id) i = (i + 1) & mask;
    return i;
}

bool CompletedWindow::contains(MsgId id) const {
    return count_ != 0 && used_[probe(id)];
}

void CompletedWindow::note(MsgId id) {
    insert(id);
    if (ring_.size() < kCapacity) {
        ring_.push_back(id);
        return;
    }
    erase(ring_[head_]);
    ring_[head_] = id;
    head_ = (head_ + 1) % kCapacity;
}

void CompletedWindow::insert(MsgId id) {
    // Keep the load at most one half: most lookups are misses (DATA of
    // messages still in flight), and linear probing misses stay short.
    if (2 * (count_ + 1) > keys_.size()) grow();
    const size_t i = probe(id);
    if (used_[i]) return;
    keys_[i] = id;
    used_[i] = 1;
    count_++;
}

void CompletedWindow::erase(MsgId id) {
    size_t hole = probe(id);
    if (!used_[hole]) return;
    // Backward-shift: pull each later entry of the probe run into the
    // hole when the hole lies between its home slot and where it sits.
    const size_t mask = keys_.size() - 1;
    for (size_t j = (hole + 1) & mask; used_[j]; j = (j + 1) & mask) {
        if (((j - home(keys_[j])) & mask) >= ((j - hole) & mask)) {
            keys_[hole] = keys_[j];
            hole = j;
        }
    }
    used_[hole] = 0;
    count_--;
}

void CompletedWindow::grow() {
    std::vector<MsgId> oldKeys = std::move(keys_);
    std::vector<uint8_t> oldUsed = std::move(used_);
    const size_t slots = oldKeys.empty() ? 16 : 2 * oldKeys.size();
    keys_.assign(slots, 0);
    used_.assign(slots, 0);
    shift_ = 64 - std::countr_zero(slots);
    count_ = 0;
    for (size_t i = 0; i < oldKeys.size(); i++) {
        if (oldUsed[i]) insert(oldKeys[i]);
    }
}

}  // namespace homa
