// The oracle must agree with the event simulator on an idle network —
// this pins down every timing constant in the substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/homa_transport.h"
#include "driver/oracle.h"
#include "sim/network.h"
#include "sim/random.h"
#include "topology_shapes.h"
#include "workload/workloads.h"

namespace homa {
namespace {

TEST(Oracle, MonotoneInSize) {
    Oracle oracle(NetworkConfig::fatTree144());
    Duration prev = 0;
    for (uint32_t size = 1; size < 2'000'000; size = size * 3 / 2 + 7) {
        const Duration t = oracle.bestOneWay(size);
        EXPECT_GT(t, prev == 0 ? 0 : prev - 1);
        EXPECT_GE(t, prev);
        prev = t;
    }
}

TEST(Oracle, SmallMessageMatchesPaperConstant) {
    // The paper: minimum one-way time for a small message is 2.3 us on the
    // simulated fat-tree.
    Oracle oracle(NetworkConfig::fatTree144());
    const double us = toMicros(oracle.bestOneWay(100));
    EXPECT_GT(us, 2.0);
    EXPECT_LT(us, 2.8);
}

TEST(Oracle, RttBytesMatchesPaperConstant) {
    // ~9.7 KB at 10 Gbps (§5.2).
    const auto t = NetworkTimings::compute(NetworkConfig::fatTree144());
    EXPECT_GT(t.rttBytes, 9000);
    EXPECT_LT(t.rttBytes, 10500);
    EXPECT_NEAR(toMicros(t.rttSmallGrant), 7.8, 0.4);
}

TEST(Oracle, SingleRackRpcMatchesPaperScale) {
    // The paper: best-case 100-byte echo RPC ~4.7 us on the CloudLab
    // cluster (whose software overheads differ slightly from the simulated
    // 1.5 us); accept the same ballpark.
    Oracle oracle(NetworkConfig::singleRack16());
    const double us = toMicros(oracle.bestEchoRpc(100));
    EXPECT_GT(us, 3.0);
    EXPECT_LT(us, 5.5);
}

TEST(Oracle, LargeMessageApproachesLineRate) {
    Oracle oracle(NetworkConfig::fatTree144());
    const uint32_t size = 10'000'000;
    const double secs = toSeconds(oracle.bestOneWay(size));
    const double lineRate = static_cast<double>(messageWireBytes(size)) / 1.25e9;
    EXPECT_GT(secs, lineRate);
    EXPECT_LT(secs, lineRate * 1.01);
}

TEST(Oracle, CachedLookupsAreStable) {
    // The three-tier cross-pod path is the one that caches.
    for (const char* spec : {"racks=9,hosts=16,aggr=4",
                             "racks=8,hosts=4,aggr=3,core=2,pods=2,oversub=8"}) {
        Oracle oracle(shapeConfig(spec));
        for (uint32_t s : {1u, 777u, 10000u}) {
            EXPECT_EQ(oracle.bestOneWay(s), oracle.bestOneWay(s)) << spec;
        }
    }
}

// The per-packet store-and-forward recurrence the oracle's closed form
// replaces on every path but the three-tier cross-pod one: done[i] is the
// time packet i has fully left the current hop.
Duration referenceOneWay(const NetworkConfig& cfg, uint32_t size,
                         bool intraRack) {
    const int packets =
        std::max(1, static_cast<int>((size + kMaxPayload - 1) / kMaxPayload));
    std::vector<int64_t> wire(packets);
    uint32_t left = size;
    for (int i = 0; i < packets; i++) {
        const uint32_t payload = std::min<uint32_t>(left, kMaxPayload);
        wire[i] = payload + kHeaderBytes + kFrameOverhead;
        left -= payload;
    }
    std::vector<Bandwidth> hops = {cfg.hostLink};
    if (!cfg.singleRack() && !intraRack) {
        hops.push_back(cfg.coreLink);
        hops.push_back(cfg.coreLink);
    }
    hops.push_back(cfg.hostLink);

    // One path on a single rack: packets share every link FIFO. Across
    // racks, spraying gives each packet an independent core path.
    const bool sharedPath = cfg.singleRack() || intraRack;
    std::vector<Duration> done(packets, 0);
    Duration linkFree = 0;
    for (int i = 0; i < packets; i++) {
        done[i] = linkFree + hops[0].serialize(wire[i]);
        linkFree = done[i];
    }
    for (size_t k = 1; k < hops.size(); k++) {
        linkFree = 0;
        for (int i = 0; i < packets; i++) {
            Duration start = done[i] + cfg.switchDelay;
            if (sharedPath) start = std::max(start, linkFree);
            done[i] = start + hops[k].serialize(wire[i]);
            linkFree = done[i];
        }
    }
    return *std::max_element(done.begin(), done.end()) + cfg.softwareDelay;
}

TEST(OracleClosedForm, MatchesThePerPacketRecurrence) {
    std::vector<std::pair<std::string, NetworkConfig>> configs;
    for (const char* spec : kShapeSpecs) configs.emplace_back(spec, shapeConfig(spec));
    NetworkConfig slowCore = NetworkConfig::fatTree144();
    slowCore.coreLink = Bandwidth{3 * slowCore.hostLink.psPerByte};
    configs.emplace_back("coreLink slower than hostLink", slowCore);
    NetworkConfig noSwitchDelay = NetworkConfig::fatTree144();
    noSwitchDelay.switchDelay = 0;
    configs.emplace_back("switchDelay 0", noSwitchDelay);

    std::vector<uint32_t> sizes;
    for (uint32_t s = 0; s <= 65536; s++) sizes.push_back(s);
    Rng rng(7);
    for (int i = 0; i < 2000; i++) {
        sizes.push_back(static_cast<uint32_t>(rng.range(0, 10'000'000)));
    }

    uint64_t cases = 0;
    for (const auto& [name, cfg] : configs) {
        const Oracle oracle(cfg);
        for (bool intraRack : {true, false}) {
            // The three-tier cross-pod path keeps the recurrence itself.
            if (cfg.threeTier() && !intraRack) continue;
            for (uint32_t size : sizes) {
                ASSERT_EQ(oracle.bestOneWay(size, intraRack),
                          referenceOneWay(cfg, size, intraRack))
                    << name << ", size " << size
                    << (intraRack ? ", intra-rack" : ", cross-rack");
                cases++;
            }
        }
    }
    EXPECT_GT(cases, 1'000'000u);
}

// The definitive check: Homa on an otherwise idle simulated network hits
// the oracle exactly for unscheduled-only messages, across both topologies
// and a sweep of sizes.
class OracleVsSim
    : public ::testing::TestWithParam<std::tuple<bool, uint32_t>> {};

TEST_P(OracleVsSim, IdleNetworkMatchesOracleExactly) {
    const auto [singleRack, size] = GetParam();
    NetworkConfig cfg = singleRack ? NetworkConfig::singleRack16()
                                   : NetworkConfig::fatTree144();
    Network net(cfg, HomaTransport::factory({}, cfg, &workload(WorkloadId::W3)));
    Oracle oracle(cfg);

    Duration measured = -1;
    Time created = 0;
    net.setDeliveryCallback([&](const Message& m, const DeliveryInfo& info) {
        measured = info.completed - m.created;
        (void)created;
    });
    Message m;
    m.id = net.nextMsgId();
    m.src = 0;
    m.dst = static_cast<HostId>(cfg.hostCount() - 1);
    m.length = size;
    net.sendMessage(m);
    net.loop().run();

    ASSERT_GE(measured, 0);
    // Single-packet messages match the oracle exactly. Multi-packet ones
    // can exceed it slightly: the oracle is the best case over spraying
    // choices, and an unlucky draw can queue a runt packet behind a full
    // one (~66 ns per hop); scheduled messages may also pay a one-grant
    // hiccup. Never faster than the oracle, never more than 10% + 1 us
    // slower on an idle network.
    const Duration best = oracle.bestOneWay(size);
    EXPECT_GE(measured, best);
    if (size <= static_cast<uint32_t>(kMaxPayload)) {
        EXPECT_EQ(measured, best);
    } else {
        EXPECT_LE(static_cast<double>(measured),
                  1.10 * static_cast<double>(best) + microseconds(1));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OracleVsSim,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(1u, 64u, 100u, 500u, 1442u, 1443u,
                                         2884u, 5000u, 9000u, 20000u, 100000u,
                                         1000000u)),
    [](const auto& info) {
        return std::string(std::get<0>(info.param) ? "rack" : "fattree") +
               "_" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace homa
