// CompletedWindow replaced an unordered_set + deque pair in HomaReceiver;
// duplicate DATA suppression must answer exactly as that pair did, or the
// set of dropped retransmitted tails (and so every Homa result) changes.
#include <gtest/gtest.h>

#include <deque>
#include <unordered_set>
#include <vector>

#include "core/completed_window.h"
#include "core/rpc.h"
#include "sim/random.h"

namespace homa {
namespace {

// The previous implementation, kept as the reference model.
class SetAndFifo {
public:
    bool contains(MsgId id) const { return set_.count(id) != 0; }
    void note(MsgId id) {
        set_.insert(id);
        fifo_.push_back(id);
        while (fifo_.size() > CompletedWindow::kCapacity) {
            set_.erase(fifo_.front());
            fifo_.pop_front();
        }
    }
    size_t size() const { return set_.size(); }

private:
    std::unordered_set<MsgId> set_;
    std::deque<MsgId> fifo_;
};

TEST(CompletedWindow, EmptyContainsNothing) {
    CompletedWindow w;
    EXPECT_FALSE(w.contains(0));
    EXPECT_FALSE(w.contains(1));
    EXPECT_EQ(w.size(), 0u);
}

TEST(CompletedWindow, IdZeroIsAnOrdinaryId) {
    // Message::id defaults to 0: it must be storable, and an empty slot
    // must not read as a stored 0.
    CompletedWindow w;
    w.note(1);
    EXPECT_FALSE(w.contains(0));
    w.note(0);
    EXPECT_TRUE(w.contains(0));
    for (MsgId id = 2; id < CompletedWindow::kCapacity + 1; id++) w.note(id);
    EXPECT_TRUE(w.contains(0));  // 1 was evicted first
    EXPECT_FALSE(w.contains(1));
    w.note(CompletedWindow::kCapacity + 1);
    EXPECT_FALSE(w.contains(0));
}

TEST(CompletedWindow, MatchesSetAndFifoModel) {
    for (uint64_t seed : {1u, 2u, 3u, 4u}) {
        Rng rng(seed);
        CompletedWindow window;
        SetAndFifo model;
        std::vector<MsgId> history;  // every id noted, in order
        MsgId globalNext = 1;
        std::vector<uint64_t> perHost(16, 0);

        auto freshId = [&]() -> MsgId {
            switch (rng.below(4)) {
                case 0: return globalNext++;  // Network::nextMsgId()
                case 1: {                     // Network::nextMsgId(src)
                    const uint64_t src = rng.below(perHost.size());
                    return (src + 1) << 40 | perHost[src]++;
                }
                case 2:  // an RPC response
                    return (rng.chance(0.5) ? globalNext++ : rng.next() >> 1) |
                           kRpcResponseBit;
                default: return rng.next();
            }
        };
        auto check = [&](MsgId id, int op) {
            ASSERT_EQ(window.contains(id), model.contains(id))
                << "seed " << seed << ", op " << op << ", id " << id;
        };

        const int ops = 4 * static_cast<int>(CompletedWindow::kCapacity);
        for (int op = 0; op < ops; op++) {
            MsgId id;
            const uint64_t kind = rng.below(20);
            if (kind == 0) {
                id = 0;
            } else if (kind <= 2 && history.size() > CompletedWindow::kCapacity) {
                // Re-complete an id old enough to have been evicted.
                id = history[rng.below(history.size() - CompletedWindow::kCapacity)];
            } else if (kind == 3 && !history.empty()) {
                // Re-complete an id still in the window: it queues twice.
                const size_t back =
                    rng.below(std::min(history.size(), CompletedWindow::kCapacity));
                id = history[history.size() - 1 - back];
            } else {
                id = freshId();
            }
            window.note(id);
            model.note(id);
            history.push_back(id);
            ASSERT_EQ(window.size(), model.size()) << "seed " << seed << ", op " << op;

            check(id, op);
            check(0, op);
            for (int probe = 0; probe < 6; probe++) {
                check(history[rng.below(history.size())], op);
                check(freshId(), op);
            }
            if (op % 4096 == 0) {
                for (MsgId h : history) check(h, op);
            }
        }
    }
}

}  // namespace
}  // namespace homa
