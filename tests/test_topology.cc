// Topology property suite for the configurable three-tier fat-tree
// (sim/topology.h, sim/network.cc): over a grid of (racks, hostsPerRack,
// aggr, core, oversub) shapes it proves the wiring invariants — every
// link bidirectional and uniquely id'd in canonical order, every host
// pair routable with the hop count the closed-form oracle predicts,
// bisection bandwidth matching the oversubscription knob — and the
// degenerate-shape clamp: core=0 and single-rack configs reproduce the
// pre-refactor two-tier results byte-for-byte (golden fingerprint
// hashes locked in below). TopologyDeterminism.* extends the replay
// goldens to the third tier: fault runs on core switches, ECMP reroute
// around a dead core, serial-vs-sharded identity, and the oversubscribed
// core-contention signature.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/homa_transport.h"
#include "driver/oracle.h"
#include "driver/sweep.h"
#include "fingerprint_hash.h"
#include "sim/network.h"
#include "topology_shapes.h"
#include "workload/workloads.h"

namespace homa {
namespace {

Network makeNet(const NetworkConfig& cfg) {
    return Network(cfg,
                   HomaTransport::factory({}, cfg, &workload(WorkloadId::W3)));
}

TEST(TopologyShapes, GridSpecsAreValidAndClassifiedRight) {
    int threeTier = 0;
    for (const char* spec : kShapeSpecs) {
        const NetworkConfig cfg = shapeConfig(spec);
        EXPECT_EQ(validateTopoConfig(cfg), "") << spec;
        EXPECT_EQ(cfg.threeTier(), cfg.coreSwitches > 0 && !cfg.singleRack())
            << spec;
        EXPECT_EQ(cfg.podRacks() * cfg.pods(), cfg.racks) << spec;
        threeTier += cfg.threeTier();
    }
    EXPECT_GE(std::size(kShapeSpecs), 12u);
    EXPECT_GE(threeTier, 6);  // the grid genuinely exercises the new tier
}

TEST(TopologyShapes, SwitchAndPortCountsMatchTheConfig) {
    for (const char* spec : kShapeSpecs) {
        const NetworkConfig cfg = shapeConfig(spec);
        Network net = makeNet(cfg);
        const int perRack = cfg.hostsPerRack;
        const int uplinks = cfg.singleRack() ? 0 : cfg.aggrSwitches;
        const int nCore = cfg.threeTier() ? cfg.coreSwitches : 0;
        EXPECT_EQ(net.hostCount(), cfg.hostCount()) << spec;
        EXPECT_EQ(net.rackCount(), cfg.racks) << spec;
        EXPECT_EQ(net.aggrCount(), cfg.totalAggrs()) << spec;
        EXPECT_EQ(net.coreCount(), nCore) << spec;
        for (int r = 0; r < net.rackCount(); r++) {
            EXPECT_EQ(net.tor(r).portCount(),
                      static_cast<size_t>(perRack + uplinks))
                << spec << " tor" << r;
        }
        for (int g = 0; g < net.aggrCount(); g++) {
            EXPECT_EQ(net.aggr(g).portCount(),
                      static_cast<size_t>(cfg.podRacks() + nCore))
                << spec << " aggr" << g;
        }
        for (int c = 0; c < net.coreCount(); c++) {
            EXPECT_EQ(net.core(c).portCount(),
                      static_cast<size_t>(cfg.totalAggrs()))
                << spec << " core" << c;
        }
        EXPECT_EQ(net.torUplinkPorts().size(),
                  static_cast<size_t>(cfg.racks * uplinks))
            << spec;
        EXPECT_EQ(net.aggrUplinkPorts().size(),
                  static_cast<size_t>(cfg.totalAggrs() * nCore))
            << spec;
        EXPECT_EQ(net.coreDownlinkPorts().size(),
                  static_cast<size_t>(nCore * cfg.totalAggrs()))
            << spec;
    }
}

TEST(TopologyShapes, LinkIdsAreUniqueDenseAndCanonicallyOrdered) {
    for (const char* spec : kShapeSpecs) {
        const NetworkConfig cfg = shapeConfig(spec);
        Network net = makeNet(cfg);
        std::vector<int32_t> ids;
        for (HostId h = 0; h < net.hostCount(); h++) {
            // NIC ids are the host ids — canonical order starts here.
            EXPECT_EQ(net.host(h).nic().linkId(), h) << spec;
            ids.push_back(net.host(h).nic().linkId());
        }
        for (int r = 0; r < net.rackCount(); r++) {
            for (size_t i = 0; i < net.tor(r).portCount(); i++) {
                ids.push_back(net.tor(r).port(static_cast<int>(i)).linkId());
            }
        }
        for (int g = 0; g < net.aggrCount(); g++) {
            for (size_t i = 0; i < net.aggr(g).portCount(); i++) {
                ids.push_back(net.aggr(g).port(static_cast<int>(i)).linkId());
            }
        }
        for (int c = 0; c < net.coreCount(); c++) {
            for (size_t i = 0; i < net.core(c).portCount(); i++) {
                ids.push_back(net.core(c).port(static_cast<int>(i)).linkId());
            }
        }
        // TOR ports continue right after the NICs, rack by rack.
        EXPECT_EQ(net.tor(0).port(0).linkId(), net.hostCount()) << spec;
        const std::set<int32_t> unique(ids.begin(), ids.end());
        EXPECT_EQ(unique.size(), ids.size()) << spec;
        EXPECT_EQ(*unique.begin(), 0) << spec;
        EXPECT_EQ(*unique.rbegin(), static_cast<int32_t>(ids.size()) - 1)
            << spec;  // dense: ids are exactly [0, linkCount)
    }
}

TEST(TopologyShapes, EveryLinkHasAMatchingReverseLink) {
    for (const char* spec : kShapeSpecs) {
        const NetworkConfig cfg = shapeConfig(spec);
        Network net = makeNet(cfg);
        const int perRack = cfg.hostsPerRack;
        const int uplinks = cfg.singleRack() ? 0 : cfg.aggrSwitches;
        const int nCore = cfg.threeTier() ? cfg.coreSwitches : 0;
        // host <-> TOR, both directions.
        for (HostId h = 0; h < net.hostCount(); h++) {
            const int r = net.rackOf(h);
            EXPECT_EQ(net.host(h).nic().peer(),
                      static_cast<PacketSink*>(&net.tor(r)))
                << spec << " host" << h;
            EXPECT_EQ(net.tor(r).port(h % perRack).peer(),
                      static_cast<PacketSink*>(&net.host(h)))
                << spec << " host" << h;
        }
        // TOR <-> aggr: uplink a of rack r pairs with downlink of the
        // a-th aggr *of r's pod*, at r's in-pod index.
        for (int r = 0; r < net.rackCount(); r++) {
            const int podBase = cfg.podOfRack(r) * uplinks;
            const int inPod = r - cfg.podOfRack(r) * cfg.podRacks();
            for (int a = 0; a < uplinks; a++) {
                EXPECT_EQ(net.tor(r).port(perRack + a).peer(),
                          static_cast<PacketSink*>(&net.aggr(podBase + a)))
                    << spec << " tor" << r;
                EXPECT_EQ(net.aggr(podBase + a).port(inPod).peer(),
                          static_cast<PacketSink*>(&net.tor(r)))
                    << spec << " tor" << r;
            }
        }
        // aggr <-> core, both directions, global aggr index.
        for (int g = 0; g < net.aggrCount(); g++) {
            for (int c = 0; c < nCore; c++) {
                EXPECT_EQ(net.aggr(g).port(cfg.podRacks() + c).peer(),
                          static_cast<PacketSink*>(&net.core(c)))
                    << spec << " aggr" << g;
                EXPECT_EQ(net.core(c).port(g).peer(),
                          static_cast<PacketSink*>(&net.aggr(g)))
                    << spec << " aggr" << g;
            }
        }
    }
}

TEST(TopologyShapes, BisectionBandwidthMatchesTheOversubscriptionKnob) {
    for (const char* spec : kShapeSpecs) {
        const NetworkConfig cfg = shapeConfig(spec);
        if (!cfg.threeTier()) continue;
        Network net = makeNet(cfg);
        for (int g = 0; g < net.aggrCount(); g++) {
            double down = 0, up = 0;  // bytes per picosecond
            for (int r = 0; r < cfg.podRacks(); r++) {
                down += 1.0 / net.aggr(g).port(r).bandwidth().psPerByte;
            }
            for (int c = 0; c < cfg.coreSwitches; c++) {
                up += 1.0 /
                      net.aggr(g).port(cfg.podRacks() + c).bandwidth().psPerByte;
            }
            // Downlink capacity / uplink capacity == the knob, up to the
            // integer rounding of psPerByte (sub-percent at these rates).
            EXPECT_NEAR(down / up, cfg.oversubscription,
                        cfg.oversubscription * 0.01)
                << spec << " aggr" << g;
        }
    }
}

// -------------------------------------------------- routability & hops

// Delivery time of one small (single-packet, unscheduled) message on an
// otherwise idle network — exact, so it encodes the hop count: every
// store-and-forward hop adds its serialization plus the switch delay.
Duration measureOneWay(const NetworkConfig& cfg, HostId src, HostId dst,
                       uint32_t size) {
    Network net = makeNet(cfg);
    Duration measured = -1;
    net.setDeliveryCallback([&](const Message& m, const DeliveryInfo& info) {
        measured = info.completed - m.created;
    });
    Message m;
    m.id = net.nextMsgId();
    m.src = src;
    m.dst = dst;
    m.length = size;
    net.sendMessage(m);
    net.loop().run();
    EXPECT_GE(measured, 0) << "undelivered " << src << "->" << dst;
    return measured;
}

TEST(TopologyShapes, HopLatenciesMatchTheClosedFormOracle) {
    const uint32_t size = 400;  // single unscheduled packet: oracle-exact
    for (const char* spec : kShapeSpecs) {
        const NetworkConfig cfg = shapeConfig(spec);
        const Oracle oracle(cfg);
        // Intra-rack: host -> TOR -> host (1 switch).
        const Duration intraRack = measureOneWay(cfg, 0, 1, size);
        EXPECT_EQ(intraRack, oracle.bestOneWay(size, /*intraRack=*/true))
            << spec;
        if (cfg.singleRack()) continue;
        if (cfg.threeTier()) {
            // Cross-pod: 5 switches, through the oversubscribed core —
            // the worst-case placement the oracle models.
            const HostId far = static_cast<HostId>(cfg.hostCount() - 1);
            const Duration crossPod = measureOneWay(cfg, 0, far, size);
            EXPECT_EQ(crossPod, oracle.bestOneWay(size)) << spec;
            if (cfg.podRacks() >= 2) {
                // Intra-pod cross-rack: 3 switches, never touches the
                // core — the same path a two-tier tree would take.
                NetworkConfig twoTier = cfg;
                twoTier.coreSwitches = 0;
                const Duration intraPod = measureOneWay(
                    cfg, 0, static_cast<HostId>(cfg.hostsPerRack), size);
                EXPECT_EQ(intraPod, Oracle(twoTier).bestOneWay(size)) << spec;
                EXPECT_GT(crossPod, intraPod) << spec;
                EXPECT_GT(intraPod, intraRack) << spec;
            } else {
                EXPECT_GT(crossPod, intraRack) << spec;
            }
        } else {
            // Two-tier cross-rack: 3 switches.
            const Duration crossRack = measureOneWay(
                cfg, 0, static_cast<HostId>(cfg.hostCount() - 1), size);
            EXPECT_EQ(crossRack, oracle.bestOneWay(size)) << spec;
            EXPECT_GT(crossRack, intraRack) << spec;
        }
    }
}

TEST(TopologyShapes, EveryHostPairIsRoutable) {
    // All-pairs delivery on every shape small enough to sweep (the large
    // shapes' wiring is covered by the counts/peers invariants above).
    for (const char* spec : kShapeSpecs) {
        const NetworkConfig cfg = shapeConfig(spec);
        if (cfg.hostCount() > 36) continue;
        Network net = makeNet(cfg);
        int delivered = 0;
        net.setDeliveryCallback(
            [&](const Message&, const DeliveryInfo&) { delivered++; });
        int sent = 0;
        for (HostId s = 0; s < net.hostCount(); s++) {
            for (HostId d = 0; d < net.hostCount(); d++) {
                if (s == d) continue;
                Message m;
                m.id = net.nextMsgId();
                m.src = s;
                m.dst = d;
                m.length = 1000;
                net.sendMessage(m);
                sent++;
            }
        }
        net.loop().run();
        EXPECT_EQ(delivered, sent) << spec;
    }
}

TEST(TopologyShapes, OnlyCrossPodTrafficTouchesTheCore) {
    for (const char* spec : kShapeSpecs) {
        const NetworkConfig cfg = shapeConfig(spec);
        if (!cfg.threeTier() || cfg.podRacks() < 2) continue;
        const int64_t wire = messageWireBytes(50000);
        {
            // Cross-pod: the full message climbs over aggr->core links.
            Network net = makeNet(cfg);
            Message m;
            m.id = net.nextMsgId();
            m.src = 0;
            m.dst = static_cast<HostId>(cfg.hostCount() - 1);
            m.length = 50000;
            net.sendMessage(m);
            net.loop().run();
            int64_t coreBytes = 0, coreDownBytes = 0;
            for (const auto* p : net.aggrUplinkPorts())
                coreBytes += p->stats().wireBytesSent;
            for (const auto* p : net.coreDownlinkPorts())
                coreDownBytes += p->stats().wireBytesSent;
            EXPECT_GE(coreBytes, wire) << spec;
            EXPECT_GE(coreDownBytes, wire) << spec;
        }
        {
            // Intra-pod cross-rack: zero bytes on any core link.
            Network net = makeNet(cfg);
            Message m;
            m.id = net.nextMsgId();
            m.src = 0;
            m.dst = static_cast<HostId>(cfg.hostsPerRack);  // rack 1, pod 0
            m.length = 50000;
            net.sendMessage(m);
            net.loop().run();
            int64_t coreBytes = 0;
            for (const auto* p : net.aggrUplinkPorts())
                coreBytes += p->stats().wireBytesSent;
            for (const auto* p : net.coreDownlinkPorts())
                coreBytes += p->stats().wireBytesSent;
            EXPECT_EQ(coreBytes, 0) << spec;
        }
    }
}

// ------------------------------------------------- degenerate clamping

ExperimentConfig smallConfig(WorkloadId wl, double load,
                             Protocol kind = Protocol::Homa) {
    ExperimentConfig cfg;
    cfg.proto.kind = kind;
    cfg.traffic.workload = wl;
    cfg.traffic.load = load;
    cfg.traffic.stop = milliseconds(2);
    cfg.drainGrace = milliseconds(20);
    return cfg;
}

TEST(TopologyClamp, CoreZeroRunsAreByteIdenticalToTwoTier) {
    // The three-tier knobs must be inert at core=0: same fingerprint as
    // the untouched two-tier tree however pods/oversub are set, whether
    // the knobs arrive via the config or the scenario "topo:" modifier.
    const ExperimentConfig plain = smallConfig(WorkloadId::W2, 0.6);
    const std::string golden = resultFingerprint(runExperiment(plain));

    ExperimentConfig knobs = plain;
    knobs.net.coreSwitches = 0;
    knobs.net.podCount = 3;
    knobs.net.oversubscription = 8.0;
    EXPECT_EQ(golden, resultFingerprint(runExperiment(knobs)));

    ExperimentConfig viaSpec = plain;
    viaSpec.traffic.scenario.topoSpec = "core=0,pods=3,oversub=8";
    EXPECT_EQ(golden, resultFingerprint(runExperiment(viaSpec)));
}

TEST(TopologyClamp, SingleRackIgnoresTheCoreKnobs) {
    ExperimentConfig plain = smallConfig(WorkloadId::W1, 0.5);
    plain.net = NetworkConfig::singleRack16();
    const std::string golden = resultFingerprint(runExperiment(plain));
    ExperimentConfig knobs = plain;
    knobs.net.oversubscription = 4.0;
    knobs.net.podCount = 1;
    EXPECT_EQ(golden, resultFingerprint(runExperiment(knobs)));
}

TEST(TopologyClamp, TopoSpecRejectsInvalidShapes) {
    NetworkConfig cfg = NetworkConfig::fatTree144();
    std::string err;
    EXPECT_FALSE(parseTopoSpec("racks=0", cfg, &err));
    EXPECT_FALSE(parseTopoSpec("racks=8,pods=3,core=2", cfg, &err));
    EXPECT_FALSE(parseTopoSpec("racks=1,core=2", cfg, &err));  // no pods
    EXPECT_FALSE(parseTopoSpec("oversub=0", cfg, &err));
    EXPECT_FALSE(parseTopoSpec("bogus=3", cfg, &err));
    EXPECT_FALSE(parseTopoSpec("racks", cfg, &err));
    // Failed parses leave the config untouched.
    EXPECT_EQ(cfg.racks, 9);
    EXPECT_EQ(cfg.coreSwitches, 0);
}

// --------------------------------------------------- replay goldens
//
// FNV-1a of the full resultFingerprint, captured on the pre-core-layer
// tree: the refactor (and any future change) must reproduce these runs
// byte-for-byte. On mismatch the test streams the live fingerprint so
// the diff against the goldens is inspectable.
TEST(TopologyDeterminism, TwoTierGoldenFingerprintsUnchanged) {
    struct Golden {
        Protocol proto;
        WorkloadId wl;
        uint64_t hash;
        size_t length;
    };
    const Golden goldens[] = {
        {Protocol::Homa, WorkloadId::W3, 0xf55c33d31023811cull, 1717},
        {Protocol::PFabric, WorkloadId::W3, 0x91c59c26a2d7c7b4ull, 1635},
        {Protocol::Homa, WorkloadId::W2, 0x7832e2b8da2c777full, 1718},
        {Protocol::Homa, WorkloadId::W4, 0xf9a675df2b776ca1ull, 1640},
    };
    for (const Golden& g : goldens) {
        ExperimentConfig cfg = smallConfig(g.wl, 0.8, g.proto);
        cfg.traffic.seed = 99;
        const std::string fp = resultFingerprint(runExperiment(cfg));
        EXPECT_EQ(fnv1a(fp), g.hash)
            << protocolName(g.proto) << " live fingerprint:\n"
            << fp;
        EXPECT_EQ(fp.size(), g.length) << protocolName(g.proto);
    }
}

// The grid's mid-size three-tier point, oversubscribed 4x.
ExperimentConfig threeTierConfig(WorkloadId wl, double load,
                                 Protocol kind = Protocol::Homa) {
    ExperimentConfig cfg = smallConfig(wl, load, kind);
    cfg.traffic.scenario.topoSpec = "racks=8,hosts=4,aggr=2,core=2,oversub=4";
    return cfg;
}

TEST(TopologyDeterminism, ThreeTierRunsReplayByteIdentically) {
    for (Protocol kind : {Protocol::Homa, Protocol::PFabric}) {
        const ExperimentConfig cfg = threeTierConfig(WorkloadId::W2, 0.6, kind);
        const ExperimentResult a = runExperiment(cfg);
        EXPECT_GT(a.delivered, 0u) << protocolName(kind);
        EXPECT_EQ(a.coreSwitches, 2) << protocolName(kind);
        EXPECT_EQ(resultFingerprint(a), resultFingerprint(runExperiment(cfg)))
            << protocolName(kind);
        ExperimentConfig reseeded = cfg;
        reseeded.traffic.seed = cfg.traffic.seed + 1;
        EXPECT_NE(resultFingerprint(a),
                  resultFingerprint(runExperiment(reseeded)))
            << protocolName(kind);
    }
}

TEST(TopologyDeterminism, ThreeTierSerialEqualsParallel) {
    // The acceptance bar for the core tier: aggr<->core crossings ride
    // the same outbox machinery, so a sharded run is byte-identical.
    for (Protocol kind : {Protocol::Homa, Protocol::Ndp}) {
        ExperimentConfig cfg = threeTierConfig(WorkloadId::W2, 0.6, kind);
        const ExperimentResult serial = runExperiment(cfg);
        EXPECT_GT(serial.delivered, 0u) << protocolName(kind);
        cfg.parallel.threads = 4;
        EXPECT_EQ(resultFingerprint(serial),
                  resultFingerprint(runExperiment(cfg)))
            << protocolName(kind);
    }
}

TEST(TopologyDeterminism, CoreFaultsReplayAndMatchSerial) {
    // Fault goldens extended to the third tier: killing / flapping /
    // degrading a core switch replays from the seed and survives
    // sharding, with the drop-by-cause counters in the fingerprint.
    for (const char* body : {"kill=core0,at=400us", "flap=core1,at=500us,for=200us",
                             "degrade=core0,at=200us,for=1ms,bw=0.5,drop=0.02"}) {
        ExperimentConfig cfg = threeTierConfig(WorkloadId::W2, 0.6);
        FaultSpec f;
        std::string err;
        ASSERT_TRUE(parseFaultSpec(body, f, &err)) << body << ": " << err;
        cfg.traffic.scenario.faults.push_back(f);
        const ExperimentResult a = runExperiment(cfg);
        ASSERT_TRUE(a.faults) << body;
        EXPECT_GT(a.delivered, 0u) << body;
        EXPECT_EQ(resultFingerprint(a), resultFingerprint(runExperiment(cfg)))
            << body;
        cfg.parallel.threads = 4;
        EXPECT_EQ(resultFingerprint(a), resultFingerprint(runExperiment(cfg)))
            << body;
        ExperimentConfig reseeded = cfg;
        reseeded.traffic.seed = cfg.traffic.seed + 1;
        EXPECT_NE(resultFingerprint(a),
                  resultFingerprint(runExperiment(reseeded)))
            << body;
    }
}

TEST(TopologyDeterminism, EcmpReroutesAroundADeadCoreSwitch) {
    // With per-message ECMP the aggr->core hop hashes over *alive*
    // uplinks, so killing one core switch degrades capacity instead of
    // blackholing half the cross-pod flows — and the rerouted run is
    // still byte-identical under sharding.
    ExperimentConfig cfg = threeTierConfig(WorkloadId::W2, 0.5);
    cfg.traffic.scenario.ecmpUplinks = true;
    FaultSpec f;
    std::string err;
    ASSERT_TRUE(parseFaultSpec("kill=core0,at=300us", f, &err)) << err;
    cfg.traffic.scenario.faults.push_back(f);
    const ExperimentResult serial = runExperiment(cfg);
    ASSERT_TRUE(serial.faults);
    EXPECT_EQ(serial.faults->switchKills, 1u);
    EXPECT_GT(serial.delivered, 0u);
    cfg.parallel.threads = 4;
    EXPECT_EQ(resultFingerprint(serial), resultFingerprint(runExperiment(cfg)));
}

TEST(TopologyDeterminism, OversubscribedCoreContendsHarderThanAggr) {
    // The whole point of the knob: at oversub=4 a cross-pod-heavy
    // pattern drives the aggr->core links hotter than the TOR->aggr
    // links — while the run stays byte-identical across shard counts.
    for (TrafficPatternKind kind :
         {TrafficPatternKind::Permutation, TrafficPatternKind::Incast}) {
        ExperimentConfig cfg = threeTierConfig(WorkloadId::W3, 0.8);
        cfg.traffic.scenario.kind = kind;
        const ExperimentResult serial = runExperiment(cfg);
        EXPECT_GT(serial.delivered, 0u) << patternName(kind);
        EXPECT_GT(serial.coreLinkUtilization, 0.0) << patternName(kind);
        EXPECT_GT(serial.coreLinkUtilization, serial.aggrLinkUtilization)
            << patternName(kind);
        cfg.parallel.threads = 4;
        EXPECT_EQ(resultFingerprint(serial),
                  resultFingerprint(runExperiment(cfg)))
            << patternName(kind);
    }
}

TEST(TopologyDeterminism, SweepPointsWithTopoSpecsAreThreadInvariant) {
    // Mixed two-/three-tier sweep: fingerprints independent of sweep
    // fan-out, and the three-tier block appears only where it should.
    std::vector<ExperimentConfig> points;
    points.push_back(smallConfig(WorkloadId::W1, 0.5));
    points.push_back(threeTierConfig(WorkloadId::W1, 0.5));
    points.push_back(threeTierConfig(WorkloadId::W2, 0.6, Protocol::PFabric));

    SweepOptions serial;
    serial.threads = 1;
    serial.deriveSeeds = true;
    SweepOptions parallel = serial;
    parallel.threads = 3;

    const SweepOutcome one = SweepRunner(serial).run(points);
    const SweepOutcome many = SweepRunner(parallel).run(points);
    ASSERT_EQ(one.results.size(), points.size());
    for (size_t i = 0; i < points.size(); i++) {
        EXPECT_EQ(resultFingerprint(one.results[i]),
                  resultFingerprint(many.results[i]))
            << "point " << i;
    }
    EXPECT_EQ(resultFingerprint(one.results[0]).find("coreSwitches"),
              std::string::npos);
    EXPECT_NE(resultFingerprint(one.results[1]).find("coreSwitches"),
              std::string::npos);
}

}  // namespace
}  // namespace homa
