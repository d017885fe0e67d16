// Parallel engine internals (sim/parallel.h): a run split across many
// runNetworkUntil calls replays the one-call and serial runs, cross-shard
// packets parked between calls stay in the conservation ledger, per-shard
// hot state sits on private cache lines, and the lookahead invariant the
// one-barrier window rests on is checked in every build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "driver/experiment.h"
#include "packet_ledger.h"
#include "sim/parallel.h"
#include "workload/generator.h"

namespace homa {
namespace {

using Delivery = std::pair<MsgId, Time>;  // (message id, completion time)

struct TreeRun {
    std::vector<Delivery> deliveries;  // per destination host, host order
    uint64_t windows = 0;
    int parkedBoundaries = 0;  // chunk ends with packets left in outboxes
};

// Homa W2 on the 144-host fat tree; `chunked` splits the run at ends that
// are not multiples of the lookahead, half of them placed exactly on the
// earliest pending event so that its cross-shard posts stay parked across
// the call boundary. Audits the packet ledger at every boundary.
TreeRun runTree(int shards, bool chunked) {
    NetworkConfig netCfg = NetworkConfig::fatTree144();
    ProtocolConfig proto;
    netCfg.switchQdisc = switchQdiscFor(proto);
    TrafficConfig traffic;
    traffic.workload = WorkloadId::W2;
    traffic.load = 0.6;
    traffic.seed = 11;
    traffic.stop = microseconds(150);
    const Time end = microseconds(400);

    Network net(netCfg,
                makeTransportFactory(proto, netCfg, &workload(traffic.workload)),
                shards);
    EXPECT_EQ(net.shardCount(), shards);
    // Each host's cell is written only by its own shard's thread.
    std::vector<std::vector<Delivery>> perHost(net.hostCount());
    net.setDeliveryCallback([&perHost](const Message& m, const DeliveryInfo& info) {
        perHost[m.dst].emplace_back(m.id, info.completed);
    });
    TrafficGenerator gen(net, traffic);
    gen.start();

    TreeRun run;
    if (!chunked) {
        run.windows = runNetworkUntil(net, end);
    } else {
        const Duration lookahead = netCfg.switchDelay;
        const Duration stride = 3 * lookahead + 12'345;
        Time t = 0;
        for (int i = 0; t < end; i++) {
            Time next = t + stride;
            if (i % 2 == 1) {
                Time pending = EventLoop::kNoEvent;
                for (int s = 0; s < net.shardCount(); s++) {
                    pending = std::min(pending, net.shardLoop(s).nextEventTime());
                }
                if (pending != EventLoop::kNoEvent) next = pending;
            }
            if (next % lookahead == 0) next++;
            t = std::min(next, end);
            run.windows += runNetworkUntil(net, t);
            for (int s = 0; s < net.shardCount(); s++) {
                EXPECT_EQ(net.shardLoop(s).now(), t) << "shard " << s;
            }
            if (net.pendingRemotePackets() > 0) run.parkedBoundaries++;
            const Ledger l = audit(net, FaultStats{});
            EXPECT_EQ(l.injected, l.delivered + l.qdiscDrops + l.inFlight)
                << "at " << t << " ps: delivered=" << l.delivered
                << " qdiscDrops=" << l.qdiscDrops << " inFlight=" << l.inFlight
                << " parked=" << net.pendingRemotePackets();
        }
    }
    for (const auto& cell : perHost) {
        run.deliveries.insert(run.deliveries.end(), cell.begin(), cell.end());
    }
    return run;
}

TEST(ParallelEngine, ChunkedRunsMatchOneCallAndSerial) {
    const TreeRun serial = runTree(1, false);
    const TreeRun once = runTree(3, false);
    const TreeRun chunked = runTree(3, true);
    ASSERT_GT(serial.deliveries.size(), 100u);
    EXPECT_EQ(serial.windows, 0u);
    EXPECT_GT(once.windows, 0u);
    EXPECT_EQ(serial.deliveries, once.deliveries);
    EXPECT_EQ(serial.deliveries, chunked.deliveries);
    // The boundaries must actually have parked cross-shard packets, or the
    // ledger checks above proved nothing about the parity boxes.
    EXPECT_GT(chunked.parkedBoundaries, 0);
}

bool linesOverlap(uintptr_t lo1, uintptr_t hi1, uintptr_t lo2, uintptr_t hi2) {
    return lo1 / kCacheLine <= (hi2 - 1) / kCacheLine &&
           lo2 / kCacheLine <= (hi1 - 1) / kCacheLine;
}

TEST(ParallelEngine, PerShardHotStateOnPrivateCacheLines) {
    // A shard's EventLoop tail (clock, sequence, counters) is written on
    // every event and its outboxes on every cross-shard packet; a line
    // shared with another shard's state turns each of those writes into a
    // coherence miss on the other core.
    NetworkConfig netCfg = NetworkConfig::fatTree144();
    ProtocolConfig proto;
    Network net(netCfg, makeTransportFactory(proto, netCfg, &workload(WorkloadId::W2)),
                3);
    ASSERT_EQ(net.shardCount(), 3);

    struct Range {
        uintptr_t lo, hi;
    };
    std::vector<Range> ranges;  // every shard block and every outbox
    auto addr = [](const void* p) { return reinterpret_cast<uintptr_t>(p); };
    for (int s = 0; s < net.shardCount(); s++) {
        const EventLoop& loop = net.shardLoop(s);
        EXPECT_EQ(addr(&loop) % kCacheLine, 0u) << "shard " << s;
        const Network::Shard& sh = net.shard(s);
        EXPECT_EQ(addr(&sh) % kCacheLine, 0u) << "shard " << s;
        EXPECT_EQ(&sh.loop, &loop);
        ranges.push_back({addr(&sh), addr(&sh) + sizeof(sh)});
        for (const auto& boxes : sh.out) {
            ASSERT_EQ(boxes.size(), 3u);
            for (const Network::Outbox& box : boxes) {
                EXPECT_EQ(addr(&box) % kCacheLine, 0u) << "shard " << s;
                ranges.push_back({addr(&box), addr(&box) + sizeof(box)});
            }
        }
    }
    for (size_t i = 0; i < ranges.size(); i++) {
        for (size_t j = i + 1; j < ranges.size(); j++) {
            EXPECT_FALSE(linesOverlap(ranges[i].lo, ranges[i].hi, ranges[j].lo,
                                      ranges[j].hi))
                << "ranges " << i << " and " << j << " share a cache line";
        }
    }
}

TEST(ParallelEngine, InjectArrivalInThePastThrows) {
    // Not an assert: the one-barrier window's correctness rests on every
    // drained packet's routing being due no earlier than the drain, so the
    // check runs in release builds too.
    EventLoop loop;
    Switch sw(loop, "tor0", nanoseconds(250), Rng(1));
    loop.at(microseconds(1), [] {});
    loop.run();
    ASSERT_EQ(loop.now(), microseconds(1));
    Packet p;
    EXPECT_THROW(sw.injectArrival(microseconds(1) - nanoseconds(251), p),
                 std::logic_error);
    EXPECT_EQ(sw.transitCount(), 0u);
    // Due exactly now is still on time.
    EXPECT_NO_THROW(sw.injectArrival(microseconds(1) - nanoseconds(250), p));
    EXPECT_EQ(sw.transitCount(), 1u);
}

TEST(ParallelEngine, ExceptionOnAWorkerShardReachesTheCaller) {
    // A failed check on a worker thread must surface as the exception, not
    // as std::terminate or a peer spinning forever at the barrier.
    NetworkConfig netCfg = NetworkConfig::fatTree144();
    ProtocolConfig proto;
    Network net(netCfg, makeTransportFactory(proto, netCfg, &workload(WorkloadId::W2)),
                3);
    ASSERT_EQ(net.shardCount(), 3);
    int laterEvents = 0;
    net.shardLoop(2).at(microseconds(1), [] { throw std::logic_error("shard 2"); });
    net.shardLoop(0).at(microseconds(1), [&laterEvents] { laterEvents++; });
    net.shardLoop(1).at(microseconds(5), [&laterEvents] { laterEvents++; });
    try {
        runNetworkUntil(net, microseconds(10));
        ADD_FAILURE() << "runNetworkUntil returned normally";
    } catch (const std::logic_error& e) {
        EXPECT_STREQ(e.what(), "shard 2");
    }
    // The run stopped at the window after the throw.
    EXPECT_EQ(laterEvents, 1);
}

}  // namespace
}  // namespace homa
