#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

namespace homa {
namespace {

// Sense-reversing spin barrier. A window is ~L = 250 ns of simulated time,
// so a run crosses hundreds of thousands of barriers; parking threads in a
// futex (std::barrier) would cost microseconds per crossing and erase the
// speedup. Spinning on an atomic phase counter costs 0.3 us per crossing
// with 2 threads and 0.6-0.7 us with 3 or 4, measured by threads that do
// nothing but cross (a 4-vCPU x86-64 VM, gcc -O2); that is why a window
// crosses it only once. The last arriver runs `completion` before
// releasing the others, which makes the completion's writes visible to
// every shard (release/acquire on phase_). count_ and phase_ sit on
// separate lines so the arrivals' read-modify-writes do not steal the line
// the waiters spin on.
class SpinBarrier {
public:
    explicit SpinBarrier(int n) : n_(n) {}

    template <typename F>
    void arriveAndWait(F&& completion) {
        const uint64_t phase = phase_.load(std::memory_order_acquire);
        if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
            completion();
            count_.store(0, std::memory_order_relaxed);
            phase_.store(phase + 1, std::memory_order_release);
        } else {
            int spins = 0;
            while (phase_.load(std::memory_order_acquire) == phase) {
                if (++spins > 4096) {  // oversubscribed or sanitized: yield
                    std::this_thread::yield();
                    spins = 0;
                }
            }
        }
    }

private:
    const int n_;
    alignas(kCacheLine) std::atomic<int> count_{0};
    alignas(kCacheLine) std::atomic<uint64_t> phase_{0};
};

// What one shard hands the barrier completion, alone on its line: every
// shard writes its own slot in every window.
struct alignas(kCacheLine) ShardSlot {
    Time next = EventLoop::kNoEvent;  // Network::takeWindowBound()
    std::exception_ptr error;         // first exception its events threw
};

struct WindowState {
    // Written only by the barrier completion (one thread, while every
    // other shard waits); reads are ordered by the barrier itself.
    Time windowStart = 0;
    uint64_t windows = 0;
    bool failed = false;
    // slots[s] is written only by shard s, before it arrives (or, for an
    // error in a drain, before its next arrival or its join).
    std::vector<ShardSlot> slots;
};

void shardWorker(Network& net, int me, Time end, Duration lookahead,
                 SpinBarrier& barrier, WindowState& st) {
    EventLoop& loop = net.shardLoop(me);
    ShardSlot& mine = st.slots[me];
    // An exception from this shard's events is parked in its slot rather
    // than thrown: the shard keeps crossing the barrier, so no peer waits
    // for it forever; the next completion ends the run, and
    // runNetworkUntil rethrows once every thread has joined.
    auto guarded = [&mine](auto&& step) {
        if (mine.error) return;
        try {
            step();
        } catch (...) {
            mine.error = std::current_exception();
        }
    };
    while (st.windowStart < end) {
        const Time wEnd = std::min<Time>(st.windowStart + lookahead, end);
        guarded([&] { loop.runBefore(wEnd); });
        mine.next = net.takeWindowBound(me);
        barrier.arriveAndWait([&st, wEnd, end] {
            Time next = EventLoop::kNoEvent;
            for (const ShardSlot& s : st.slots) {
                next = std::min(next, s.next);
                if (s.error) st.failed = true;
            }
            // Skip straight to the earliest pending event; never backwards,
            // never past the end.
            st.windowStart =
                st.failed ? end : std::max(wEnd, std::min(next, end));
            st.windows++;
        });
        // Peers are already filling the other parity. What this drains is
        // due no earlier than the window just chosen: the bound held it.
        guarded([&] { net.drainInboxes(me); });
    }
    // Events at exactly `end` run with the clock at `end`, mirroring the
    // serial engine's runUntil(end). Any cross-shard packet they post stays
    // parked (counted by pendingRemotePackets) and is drained after the
    // first window of the next call; it could only matter at
    // end + lookahead.
    if (!st.failed) guarded([&] { loop.runUntil(end); });
}

}  // namespace

uint64_t runNetworkUntil(Network& net, Time end) {
    const int shards = net.shardCount();
    if (shards <= 1) {
        net.loop().runUntil(end);
        return 0;
    }
    const Duration lookahead = net.config().switchDelay;
    if (lookahead <= 0) {
        throw std::logic_error(
            "runNetworkUntil: a sharded network needs switchDelay > 0 "
            "(the lookahead)");
    }

    SpinBarrier barrier(shards);
    WindowState st;
    // Every shard's clock agrees between calls, so a run continues where
    // the last one stopped.
    st.windowStart = net.loop().now();
    st.slots.resize(shards);

    std::vector<std::thread> workers;
    workers.reserve(shards - 1);
    for (int s = 1; s < shards; s++) {
        workers.emplace_back([&net, s, end, lookahead, &barrier, &st] {
            shardWorker(net, s, end, lookahead, barrier, st);
        });
    }
    shardWorker(net, 0, end, lookahead, barrier, st);
    for (std::thread& t : workers) t.join();
    for (const ShardSlot& slot : st.slots) {
        if (slot.error) std::rethrow_exception(slot.error);
    }
    return st.windows;
}

}  // namespace homa
